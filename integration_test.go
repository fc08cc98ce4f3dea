package bench

// End-to-end integration tests: the full stack — FaaS platform with crash
// injection, load-balanced multi-node AFT cluster, multicast, GC, fault
// manager — exercised together, with the §3 guarantees checked globally.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aft/aft"
	"aft/internal/baselines"
	"aft/internal/cluster"
	"aft/internal/faas"
	"aft/internal/records"
	"aft/internal/storage/kvengine"
	"aft/internal/workload"
)

// TestIntegrationClusterExactlyOnceUnderCrashes runs a write workload
// through a 3-node cluster with aggressive function-crash injection and
// verifies AFT's §3.3.1 contract cluster-wide: every request the platform
// reports committed has BOTH of its writes visible on every node (atomic,
// exactly once), and every request that failed permanently left nothing.
//
// Note what is deliberately NOT tested: cross-node read-modify-write
// counters. AFT guarantees read atomicity, not serializability — a fresh
// transaction routed to another replica may read slightly stale (but
// atomic) state until the multicast round propagates, so counter-style
// workloads require application-level idempotence, exactly as the paper
// discusses (§2, §7).
func TestIntegrationClusterExactlyOnceUnderCrashes(t *testing.T) {
	ctx := context.Background()
	c, err := cluster.New(cluster.Config{
		Nodes:            3,
		Store:            kvengine.NewDynamoDB(kvengine.Options{}),
		MulticastPeriod:  2 * time.Millisecond,
		PruneMulticast:   true,
		LocalGCInterval:  3 * time.Millisecond,
		GlobalGCInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	platform, err := faas.New(faas.Config{
		Client:             c.Client(),
		CrashRate:          0.3, // 30% of invocations die midway
		MaxFunctionRetries: 8,
		MaxRequestRetries:  8,
		Seed:               7,
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers, requests = 4, 40
	type outcome struct{ committed bool }
	outcomes := make([][]outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		outcomes[w] = make([]outcome, requests)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				val := []byte(fmt.Sprintf("%d-%d", w, i))
				keyA := fmt.Sprintf("uA-%d-%d", w, i)
				keyB := fmt.Sprintf("uB-%d-%d", w, i)
				_, err := platform.Invoke(ctx,
					func(fc *faas.Ctx) error { return fc.Put(keyA, val) },
					func(fc *faas.Ctx) error {
						// Cross-function read-your-writes through the
						// shared transaction.
						got, err := fc.Get(keyA)
						if err != nil {
							return err
						}
						return fc.Put(keyB, got)
					},
				)
				if err != nil {
					if errors.Is(err, faas.ErrRetriesExhausted) {
						continue // crash streak; nothing must be visible
					}
					t.Errorf("worker %d: %v", w, err)
					return
				}
				outcomes[w][i].committed = true
			}
		}(w)
	}
	wg.Wait()

	if platform.Metrics().Snapshot().Crashes == 0 {
		t.Fatal("crash injection never fired; test is vacuous")
	}

	// Let the last multicast rounds land, then recover any commits a node
	// acknowledged but had not yet broadcast.
	c.FlushMulticast()
	if err := c.FaultManager().ScanStorage(ctx); err != nil {
		t.Fatal(err)
	}
	c.FlushMulticast()

	for _, n := range c.Nodes() {
		for w := 0; w < workers; w++ {
			for i := 0; i < requests; i++ {
				keyA := fmt.Sprintf("uA-%d-%d", w, i)
				keyB := fmt.Sprintf("uB-%d-%d", w, i)
				txid, err := n.StartTransaction(ctx)
				if err != nil {
					t.Fatal(err)
				}
				a, errA := n.Get(ctx, txid, keyA)
				b, errB := n.Get(ctx, txid, keyB)
				n.AbortTransaction(ctx, txid)
				if outcomes[w][i].committed {
					if errA != nil || errB != nil {
						t.Fatalf("node %s: committed request %d-%d unreadable: %v / %v", n.ID(), w, i, errA, errB)
					}
					if string(a) != string(b) || string(a) != fmt.Sprintf("%d-%d", w, i) {
						t.Fatalf("node %s: fractured or wrong state for %d-%d: %q vs %q", n.ID(), w, i, a, b)
					}
				} else {
					if errA == nil || errB == nil {
						t.Fatalf("node %s: failed request %d-%d leaked writes", n.ID(), w, i)
					}
				}
			}
		}
	}
}

// TestIntegrationZeroAnomaliesWithCrashesAndGC drives the paper's canonical
// workload through a cluster with crash injection and both GC loops
// running, then asserts zero RYW / fractured-read / dirty-read anomalies —
// the Table 2 AFT row under the harshest conditions this repo can produce.
func TestIntegrationZeroAnomaliesWithCrashesAndGC(t *testing.T) {
	ctx := context.Background()
	c, err := cluster.New(cluster.Config{
		Nodes:            3,
		Store:            kvengine.NewDynamoDB(kvengine.Options{}),
		MulticastPeriod:  time.Millisecond,
		PruneMulticast:   true,
		LocalGCInterval:  2 * time.Millisecond,
		GlobalGCInterval: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	platform, err := faas.New(faas.Config{
		Client:             c.Client(),
		CrashRate:          0.15,
		MaxFunctionRetries: 50,
		MaxRequestRetries:  50,
		Seed:               11,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := workload.NewRegistry()
	exec := baselines.NewAFT(baselines.AFTConfig{
		Platform: platform,
		Payload:  workload.Payload(1, 128),
		Registry: reg,
	})

	var collector workload.TraceCollector
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.NewGenerator(int64(w), workload.NewZipf(int64(w), 8, 1.5), 2, 1, 2)
			for i := 0; i < 60; i++ {
				tr, err := exec.Execute(ctx, gen.Next())
				if err != nil {
					if errors.Is(err, faas.ErrRetriesExhausted) {
						continue
					}
					t.Errorf("worker %d: %v", w, err)
					return
				}
				collector.Add(tr)
			}
		}(w)
	}
	wg.Wait()

	res := workload.Check(collector.Traces(), reg)
	if res.RYW != 0 || res.FracturedReads != 0 || res.DirtyReads != 0 {
		t.Fatalf("anomalies under crashes+GC: %+v", res)
	}
	if res.Requests < 300 {
		t.Fatalf("too few successful requests: %d", res.Requests)
	}
}

// TestIntegrationPublicAPIOverWireCluster drives the public API through a
// TCP servers + load balancer topology: two aft-server-style nodes over
// shared storage, remote clients, and RunTransaction retries.
func TestIntegrationPublicAPIOverWireCluster(t *testing.T) {
	checkGoroutineLeak(t)
	store := aft.NewDynamoDBStore(aft.LatencyNone, 0)
	var remotes []*aft.RemoteClient
	for i := 0; i < 2; i++ {
		node, err := aft.NewNode(aft.NodeConfig{NodeID: fmt.Sprintf("wire-%d", i), Store: store})
		if err != nil {
			t.Fatal(err)
		}
		srv, addr, err := aft.Serve(node, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		client, err := aft.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		remotes = append(remotes, client)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := remotes[w%2]
			for i := 0; i < 25; i++ {
				err := aft.RunTransaction(ctx, client, func(txn *aft.Txn) error {
					k := fmt.Sprintf("wire-w%d-i%d", w, i)
					if err := txn.Put(k, []byte("v")); err != nil {
						return err
					}
					v, err := txn.Get(k)
					if err != nil || string(v) != "v" {
						return fmt.Errorf("RYW over wire: %q, %v", v, err)
					}
					return nil
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestIntegrationMultiGetWireVanishedRetry exercises MultiGet through the
// full public stack — aft.Dial client → TCP server → core — on a node that
// bootstrapped the whole Commit Set, including the ErrVersionVanished
// path: a version collected mid-transaction surfaces the redo signal
// across the wire, RunTransaction retries with a fresh transaction, and
// the retry reads the surviving newer version.
func TestIntegrationMultiGetWireVanishedRetry(t *testing.T) {
	ctx := context.Background()
	store := aft.NewDynamoDBStore(aft.LatencyNone, 0)
	seed, err := aft.NewNode(aft.NodeConfig{NodeID: "wire-seed", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"seed-a", "seed-b"} {
		if err := aft.RunTransaction(ctx, seed, func(txn *aft.Txn) error {
			return txn.Put(k, []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The serving node joins an existing deployment, as a replacement node
	// does: it bootstraps the whole Commit Set first.
	node, err := aft.NewNode(aft.NodeConfig{NodeID: "wire-mg", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	srv, addr, err := aft.Serve(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := aft.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	commit := func(val string) aft.ID {
		var id aft.ID
		txn, err := aft.Begin(ctx, client)
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Put("acct", []byte(val)); err != nil {
			t.Fatal(err)
		}
		if id, err = txn.Commit(); err != nil {
			t.Fatal(err)
		}
		return id
	}
	id1 := commit("v1")

	attempts := 0
	var got []byte
	err = aft.RunTransaction(ctx, client, func(txn *aft.Txn) error {
		attempts++
		vals, err := txn.MultiGet("acct")
		if err != nil {
			return err
		}
		if attempts == 1 {
			if string(vals[0]) != "v1" {
				return fmt.Errorf("first read = %q, want v1", vals[0])
			}
			// Mid-transaction, a newer version lands and the version this
			// transaction pinned is collected (the global GC's vote/delete
			// race with a node re-installing the record, read.go). The
			// repeat MultiGet needs
			// exactly v1 back — repeatable read — so it must surface the
			// redo signal over the wire, not silently read v2.
			commit("v2")
			if err := store.Delete(ctx, records.CommitKey(id1)); err != nil {
				return err
			}
		}
		vals, err = txn.MultiGet("acct")
		if err != nil {
			return err
		}
		got = vals[0]
		return nil
	})
	if err != nil {
		t.Fatalf("RunTransaction: %v (attempts=%d)", err, attempts)
	}
	if attempts != 2 {
		t.Fatalf("vanished version did not force exactly one retry (attempts=%d)", attempts)
	}
	if string(got) != "v2" {
		t.Fatalf("retried read = %q, want v2 (the surviving newest version)", got)
	}
}
