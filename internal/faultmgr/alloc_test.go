//go:build !race

package faultmgr

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage/kvengine"
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

// fewestMallocs is the least mallocsDuring(f) over a few runs of a
// repeatable f: the runtime's own occasional allocations land in some
// windows, never in all of them.
func fewestMallocs(f func()) uint64 {
	fewest := mallocsDuring(f)
	for i := 0; i < 4; i++ {
		fewest = min(fewest, mallocsDuring(f))
	}
	return fewest
}

const budgetRecords = 5000

// budgetNode commits budgetRecords single-key transactions on a fresh node
// and leaves them in its announce queue.
func budgetNode(t *testing.T) (*core.Node, *kvengine.DynamoDB) {
	t.Helper()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n := newNode(t, store, "n1")
	for i := 0; i < budgetRecords; i++ {
		commit(t, n, map[string]string{fmt.Sprintf("k%d", i%100): "v"})
	}
	return n, store
}

// TestScanAllocBudget pins the storage scan's cost when nothing is new: over
// budgetRecords commit records that the manager already knows, or that a
// live node still holds for its next multicast round, a scan makes no
// BatchGet and at most scanAllocBudget allocations beyond List's result —
// none per record (the pending-key slice when some records are unknown).
func TestScanAllocBudget(t *testing.T) {
	const scanAllocBudget = 2
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		known bool
	}{{"known", true}, {"queued", false}} {
		t.Run(tc.name, func(t *testing.T) {
			n, store := budgetNode(t)
			m := New(store, StaticMembership{n})
			if tc.known {
				m.Ingest(n.ID(), n.Drain())
			}
			list := fewestMallocs(func() { store.List(ctx, records.CommitPrefix) })
			before := store.Metrics().Snapshot()
			var scanErr error
			// Every record stays known or queued, so each scan repeats
			// the same work.
			scan := fewestMallocs(func() {
				if err := m.ScanStorage(ctx); err != nil {
					scanErr = err
				}
			})
			if scanErr != nil {
				t.Fatal(scanErr)
			}
			if d := store.Metrics().Snapshot().Sub(before); d.BatchGets != 0 {
				t.Fatalf("scan made %d BatchGets, want 0", d.BatchGets)
			}
			if scan > list+scanAllocBudget {
				t.Fatalf("scan of %d records: %d allocations, List alone %d; budget List + %d",
					budgetRecords, scan, list, scanAllocBudget)
			}
			t.Logf("scan %d allocations, List %d", scan, list)
		})
	}
}

// TestVoteAllocBudget pins the node side of a global GC round: each vote
// over budgetRecords candidates allocates only its result slice (no map),
// and clearing their locally-deleted markers allocates nothing.
func TestVoteAllocBudget(t *testing.T) {
	n, _ := budgetNode(t)
	recs := n.Drain()
	n.SweepLocalMetadata(0) // each key keeps its newest version
	var voter Node = n
	var deleted []bool
	if got := fewestMallocs(func() { deleted = voter.LocallyDeleted(recs) }); got > 1 {
		t.Fatalf("LocallyDeleted over %d records: %d allocations, want 1", len(recs), got)
	}
	swept := 0
	for _, d := range deleted {
		if d {
			swept++
		}
	}
	if swept != budgetRecords-100 || n.MetadataSize() != 100 {
		t.Fatalf("%d records locally deleted, %d cached; want %d and 100",
			swept, n.MetadataSize(), budgetRecords-100)
	}
	if got := fewestMallocs(func() { voter.ForgetDeleted(recs) }); got != 0 {
		t.Fatalf("ForgetDeleted over %d records: %d allocations, want 0", len(recs), got)
	}
	for i, d := range voter.LocallyDeleted(recs) {
		if d {
			t.Fatalf("record %d still marked after ForgetDeleted", i)
		}
	}
}

// TestCollectAllocBudget pins a global GC round's cost to its calls, not to
// its size: a round that collects 100 two-key transactions and one that
// collects 1 000 both stay within collectAllocBudget (13 and 16; the
// difference is the candidate list growing). Each delete list is a slice of
// the storage keys the records carry; a string per deleted key would cost
// 3 000 here.
func TestCollectAllocBudget(t *testing.T) {
	const collectAllocBudget = 16
	ctx := context.Background()
	for _, collected := range []int{100, 1000} {
		// round builds a manager with collected superseded transactions
		// and counts the allocations of the round that collects them.
		round := func() uint64 {
			store := kvengine.NewDynamoDB(kvengine.Options{})
			n := newNode(t, store, "n1")
			const pairs = 50 // the newest version of each pair stays
			for i := 0; i < collected+pairs; i++ {
				commit(t, n, map[string]string{
					fmt.Sprintf("a%d", i%pairs): "v",
					fmt.Sprintf("b%d", i%pairs): "v",
				})
			}
			m := New(store, StaticMembership{n})
			m.Ingest(n.ID(), n.Drain())
			n.SweepLocalMetadata(0)
			var removed []idgen.ID
			var err error
			allocs := mallocsDuring(func() { removed, err = m.CollectOnce(ctx, 0) })
			if err != nil || len(removed) != collected {
				t.Fatalf("round collected %d transactions, %v; want %d", len(removed), err, collected)
			}
			return allocs
		}
		fewest := min(round(), round(), round())
		t.Logf("round collecting %d transactions: %d allocations", collected, fewest)
		if fewest > collectAllocBudget {
			t.Errorf("round collecting %d transactions: %d allocations, budget %d",
				collected, fewest, collectAllocBudget)
		}
	}
}
