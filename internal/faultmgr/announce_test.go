package faultmgr

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"aft/internal/core"
	"aft/internal/multicast"
	"aft/internal/records"
	"aft/internal/storage/kvengine"
)

// readsValue fails t unless n serves value for key in a fresh transaction.
func readsValue(t *testing.T, n *core.Node, key, value string) {
	t.Helper()
	ctx := context.Background()
	txid, err := n.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer n.AbortTransaction(ctx, txid)
	v, err := n.Get(ctx, txid, key)
	if err != nil || string(v) != value {
		t.Fatalf("%s reads %s = %q, %v; want %q", n.ID(), key, v, err, value)
	}
}

// TestScanLeavesQueuedCommitsToMulticast pins what Recovered counts: a
// commit its live node still holds for the next multicast round is not
// fetched from storage (no BatchGet, Recovered stays 0) and reaches the
// manager through the tap; once the node is out of the membership, the
// same commits are genuine recoveries.
func TestScanLeavesQueuedCommitsToMulticast(t *testing.T) {
	const txns = 50
	for _, killed := range []bool{false, true} {
		t.Run(fmt.Sprintf("killed=%v", killed), func(t *testing.T) {
			store := kvengine.NewDynamoDB(kvengine.Options{})
			ctx := context.Background()
			origin := newNode(t, store, "origin")
			survivor := newNode(t, store, "survivor")
			bus := multicast.NewBus()
			bus.Register(origin)
			bus.Register(survivor)
			members := StaticMembership{origin, survivor}
			if killed {
				bus.Unregister(origin.ID())
				members = StaticMembership{survivor}
			}
			m := New(store, members)
			bus.Tap(m.Ingest)
			for i := 0; i < txns; i++ {
				commit(t, origin, map[string]string{fmt.Sprintf("k%d", i): "v"})
			}

			before := store.Metrics().Snapshot()
			if err := m.ScanStorage(ctx); err != nil {
				t.Fatal(err)
			}
			batchGets := store.Metrics().Snapshot().Sub(before).BatchGets
			recovered := m.Metrics().Snapshot().Recovered
			if killed {
				if recovered != txns {
					t.Fatalf("recovered = %d, want %d", recovered, txns)
				}
			} else {
				if batchGets != 0 || recovered != 0 || m.KnownCommits() != 0 {
					t.Fatalf("scan of queued commits: %d BatchGets, recovered %d, known %d; want 0, 0, 0",
						batchGets, recovered, m.KnownCommits())
				}
				bus.FlushPeer(origin, false)
				if m.KnownCommits() != txns {
					t.Fatalf("after the round the manager knows %d, want %d", m.KnownCommits(), txns)
				}
				if got := m.Metrics().Snapshot().Recovered; got != 0 {
					t.Fatalf("recovered = %d after the round, want 0", got)
				}
			}
			for i := 0; i < txns; i++ {
				readsValue(t, survivor, fmt.Sprintf("k%d", i), "v")
			}
		})
	}
}

// heldNode models the stretches of a record's life in which it is durable
// but in no announce queue: committed but not yet queued, or drained but
// not yet tapped. Records in held are invisible to PendingAnnounce and
// handed out by the next Drain, as the real round would.
type heldNode struct {
	*core.Node
	held []*records.CommitRecord
}

func (h *heldNode) Drain() []*records.CommitRecord {
	out := append(h.held, h.Node.Drain()...)
	h.held = nil
	return out
}

// TestScanInterleavings enumerates a scan at every point of one record's
// life — durable but not queued, queued, drained but not tapped, tapped —
// crossed with its origin alive or killed at that point and with 1 or 3
// nodes. In every cell, one more multicast round and one more scan leave
// the manager knowing the record and every live node reading it; and the
// first scan fetches the record exactly when no live node will announce it.
func TestScanInterleavings(t *testing.T) {
	stages := []string{"durable", "queued", "drained", "tapped"}
	for _, stage := range stages {
		for _, killed := range []bool{false, true} {
			for _, nodes := range []int{1, 3} {
				name := fmt.Sprintf("%s/killed=%v/nodes=%d", stage, killed, nodes)
				t.Run(name, func(t *testing.T) {
					scanInterleaving(t, stage, killed, nodes)
				})
			}
		}
	}
}

func scanInterleaving(t *testing.T, stage string, killed bool, nodes int) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	bus := multicast.NewBus()
	var all []*heldNode
	for i := 0; i < nodes; i++ {
		h := &heldNode{Node: newNode(t, store, fmt.Sprintf("n%d", i))}
		bus.Register(h)
		all = append(all, h)
	}
	origin := all[0]
	live := all
	membership := func() []Node {
		out := make([]Node, len(live))
		for i, h := range live {
			out[i] = h
		}
		return out
	}
	m := New(store, membershipFunc(membership))
	bus.Tap(m.Ingest)

	commit(t, origin.Node, map[string]string{"k": "v"})
	switch stage {
	case "durable", "drained":
		origin.held = origin.Node.Drain()
	case "tapped":
		bus.FlushPeer(origin, false)
	}
	if killed {
		bus.Unregister(origin.ID())
		live = all[1:]
	}

	if err := m.ScanStorage(ctx); err != nil {
		t.Fatal(err)
	}
	wantRecovered := int64(0)
	if stage == "durable" || stage == "drained" || (stage == "queued" && killed) {
		wantRecovered = 1
	}
	if got := m.Metrics().Snapshot().Recovered; got != wantRecovered {
		t.Fatalf("first scan recovered %d, want %d", got, wantRecovered)
	}

	for _, h := range live {
		bus.FlushPeer(h, false)
	}
	if err := m.ScanStorage(ctx); err != nil {
		t.Fatal(err)
	}
	if m.KnownCommits() != 1 {
		t.Fatalf("manager knows %d commits, want 1", m.KnownCommits())
	}
	for _, h := range live {
		readsValue(t, h.Node, "k", "v")
	}
}

type membershipFunc func() []Node

func (f membershipFunc) Nodes() []Node { return f() }

// TestScanConcurrentWithCommits runs scans and multicast rounds against
// committing clients: under -race it checks that reading a node's announce
// queue outside its lock races with neither appends nor drains, and at the
// end every commit is known without any having been lost between queue,
// drain and tap.
func TestScanConcurrentWithCommits(t *testing.T) {
	const clients, perClient = 4, 50
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	n1 := newNode(t, store, "n1")
	bus := multicast.NewBus()
	bus.Register(n1)
	m := New(store, StaticMembership{n1})
	bus.Tap(m.Ingest)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				txid, err := n1.StartTransaction(ctx)
				if err == nil {
					err = n1.Put(ctx, txid, fmt.Sprintf("c%d-%d", c, i), []byte("v"))
				}
				if err == nil {
					_, err = n1.CommitTransaction(ctx, txid)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if err := m.ScanStorage(ctx); err != nil {
			t.Fatal(err)
		}
		bus.FlushPeer(n1, false)
	}
	bus.FlushPeer(n1, false)
	if err := m.ScanStorage(ctx); err != nil {
		t.Fatal(err)
	}
	if got := m.KnownCommits(); got != clients*perClient {
		t.Fatalf("manager knows %d commits, want %d", got, clients*perClient)
	}
}
