//go:build !race

package walengine

import (
	"context"
	"fmt"
	"runtime/debug"
	"testing"
)

// TestBatchPutAllocBudget: a steady-state BatchPut and its durability wait
// allocate nothing. The frames, the staged records and the sorted keys live
// in buffers the engine reuses, overwriting a key reuses its index slot,
// and a durability wait is a round number and a counter.
func TestBatchPutAllocBudget(t *testing.T) {
	s := openT(t, t.TempDir(), Options{CompactGarbageBytes: noAutoCompact})
	ctx := context.Background()
	items := map[string][]byte{
		"d/budget-key-a": make([]byte, 1024),
		"d/budget-key-b": make([]byte, 1024),
		"c/record":       make([]byte, 128),
	}
	for i := 0; i < 16; i++ {
		if err := s.BatchPut(ctx, items); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.BatchPut(ctx, items); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("BatchPut of %d items + fsync wait: %.1f allocs", len(items), allocs)
	if allocs != 0 {
		t.Fatalf("BatchPut costs %.1f allocs, want 0", allocs)
	}
}

// TestCompactAllocsIndependentOfEntries: Compact's allocation count does not
// grow with the number of live entries it copies. Each run rewrites the one
// sealed segment the run before it wrote, so every run copies every entry.
func TestCompactAllocsIndependentOfEntries(t *testing.T) {
	ctx := context.Background()
	allocsAt := func(entries int) float64 {
		s := openT(t, t.TempDir(), Options{CompactGarbageBytes: noAutoCompact})
		items := make(map[string][]byte, entries)
		for i := 0; i < entries; i++ {
			items[fmt.Sprintf("k%06d", i)] = make([]byte, 100)
		}
		if err := s.BatchPut(ctx, items); err != nil {
			t.Fatal(err)
		}
		if err := s.SealActive(); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		// No collection during the runs: one would empty the sync.Pools
		// fmt and os draw on, and their refill would count here.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		allocs := testing.AllocsPerRun(5, func() {
			if err := s.Compact(ctx); err != nil {
				t.Fatal(err)
			}
		})
		if got := s.Len(); got != entries {
			t.Fatalf("%d live keys after compaction, want %d", got, entries)
		}
		return allocs
	}
	small, large := allocsAt(100), allocsAt(5000)
	t.Logf("Compact: %.1f allocs at 100 entries, %.1f at 5000", small, large)
	if large != small {
		t.Fatalf("Compact allocates %.1f objects at 5000 entries and %.1f at 100; want the same", large, small)
	}
}
