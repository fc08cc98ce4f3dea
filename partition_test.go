package bench

// Network partitions over the real TCP wire path: a blackholed server
// must turn into a RETRIABLE client error bounded by the caller's
// deadline — never a hang and never a terminal failure — and the public
// retry loop must ride an auto-healing partition to success.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"aft/aft"
	"aft/internal/chaos"
	"aft/internal/core"
	"aft/internal/retry"
	"aft/internal/storage/kvengine"
	"aft/internal/wire"
)

// checkGoroutineLeak arranges a final census: every goroutine a test
// starts (servers, conn handlers, reads parked against a partition) must
// be gone when its cleanups finish. Call it FIRST so its cleanup runs
// after the test's own teardown.
func checkGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine() - before; n > 0 {
			t.Errorf("leaked %d goroutines", n)
		}
	})
}

func TestIntegrationPartitionRetriableWithinDeadline(t *testing.T) {
	checkGoroutineLeak(t)
	ctx := context.Background()
	node, err := core.NewNode(core.Config{
		NodeID: "part-0",
		Store:  kvengine.NewDynamoDB(kvengine.Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nc := chaos.WrapListener(raw, chaos.NetConfig{Seed: 1})
	srv := wire.NewServer(node)
	addr := srv.Serve(nc)
	defer srv.Close()

	// No OpTimeout: the only bound on the op is the caller's ctx deadline,
	// which must ride down to the conn so a blackholed server cannot hang
	// the client past it.
	client, err := wire.DialWith(addr.String(), wire.DialConfig{MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	txid, err := client.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.AbortTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}

	nc.SetPartition(chaos.PartitionBoth, 0) // persists until healed

	opCtx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.StartTransaction(opCtx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("op against a blackholed server succeeded")
	}
	if !retry.Retriable(err) {
		t.Fatalf("partitioned op = %v, want a retriable classification", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("partitioned op = %v, want wrapped context.DeadlineExceeded", err)
	}
	if elapsed > time.Second {
		t.Fatalf("op returned after %v, want ~ctx deadline (300ms)", elapsed)
	}

	// Heal: the SAME client (fresh conn from its pool path) recovers.
	nc.SetPartition(chaos.PartitionNone, 0)
	okCtx, cancel2 := context.WithTimeout(ctx, 2*time.Second)
	defer cancel2()
	txid, err = client.StartTransaction(okCtx)
	if err != nil {
		t.Fatalf("op after heal: %v", err)
	}
	if err := client.AbortTransaction(okCtx, txid); err != nil {
		t.Fatal(err)
	}

	// Auto-heal under the public retry loop: the partition drops two
	// redial attempts, the third accept is served clean, and
	// RunTransactionPolicy must come out committed.
	pc, err := wire.DialWith(addr.String(), wire.DialConfig{
		MaxConns: 1, OpTimeout: 150 * time.Millisecond, DialTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	nc.SetPartition(chaos.PartitionBoth, 2)
	policy := aft.RetryPolicy{MaxAttempts: 20, BackoffBase: time.Millisecond, BackoffCap: 8 * time.Millisecond, BackoffSeed: 1}
	err = aft.RunTransactionPolicy(ctx, pc, policy, func(txn *aft.Txn) error {
		return txn.Put("survivor", []byte("made-it"))
	})
	if err != nil {
		t.Fatalf("retry loop did not survive an auto-healing partition: %v", err)
	}
	m := nc.NetFaultMetrics().Snapshot()
	if m.Partitions != 2 || m.Heals != 2 {
		t.Fatalf("partitions/heals = %d/%d, want 2/2", m.Partitions, m.Heals)
	}
	if m.BlockedReads == 0 {
		t.Fatal("no reads ever blocked: the partition injected nothing")
	}
}
