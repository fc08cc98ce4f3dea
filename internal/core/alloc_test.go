//go:build !race

package core

import (
	"context"
	"runtime"
	"testing"

	"aft/internal/storage/dynamosim"
)

// mallocsDuring counts the heap allocations f makes, process-wide: callers
// keep every other goroutine idle while it runs.
func mallocsDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestCommitAllocBudget pins ROADMAP's target for the write path: a
// two-key commit through the group pipeline, uncontended, on the
// zero-latency store costs at most 30 allocations — and so does the whole
// Start + 2 Put + Commit transaction around it. The count covers the
// storage engine's own copies; what is left is bytes someone keeps (the
// snapshot, the keys, the record and its encoding, the engine's values).
// A flush map, a per-commit channel, a key built in three pieces or a
// drainer goroutine coming back shows up here as a failure.
func TestCommitAllocBudget(t *testing.T) {
	const budget = 30
	n, err := NewNode(Config{NodeID: "budget", Store: dynamosim.New(dynamosim.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v1, v2 := make([]byte, 1024), make([]byte, 1024)
	var commit uint64
	txn := func() {
		txid, err := n.StartTransaction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		n.Put(ctx, txid, "budget-key-a", v1)
		n.Put(ctx, txid, "budget-key-b", v2)
		commit += mallocsDuring(func() {
			if _, err := n.CommitTransaction(ctx, txid); err != nil {
				t.Fatal(err)
			}
		})
	}
	for i := 0; i < 64; i++ {
		txn() // fill the scratch pool, grow the queue and the maps
	}
	const runs = 512
	commit = 0
	whole := mallocsDuring(func() {
		for i := 0; i < runs; i++ {
			txn()
		}
	})
	perCommit, perTxn := float64(commit)/runs, float64(whole)/runs
	t.Logf("allocs: %.1f per commit, %.1f per Start+2Put+Commit", perCommit, perTxn)
	if perCommit > budget {
		t.Errorf("commit costs %.1f allocs, budget %d", perCommit, budget)
	}
	if perTxn > budget {
		t.Errorf("whole transaction costs %.1f allocs, budget %d", perTxn, budget)
	}
}
