//go:build !race

package redissim

import (
	"aft/internal/storage/kvengine"
	"context"
	"testing"
)

// sink keeps the reference map of TestBatchGetAllocBudget on the heap, as
// BatchGet's result is.
var sink map[string][]byte

// TestBatchGetAllocBudget pins a batched call to what it hands back: a
// 4-key BatchGet over both shards (one key missing) allocates the result
// map and one copy per present key, and the same keys' BatchDelete
// allocates nothing. Grouping keys by shard takes no map, no per-shard
// slice and no per-shard result.
func TestBatchGetAllocBudget(t *testing.T) {
	s := kvengine.NewRedis(0, kvengine.Options{})
	ctx := context.Background()
	same, other := sameShardKeys(s, 3)
	keys := append(same, other)
	present := keys[1:]
	value := make([]byte, 1024)
	for _, k := range present {
		if err := s.Put(ctx, k, value); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Metrics().Snapshot()
	got := testing.AllocsPerRun(100, func() {
		m, err := s.BatchGet(ctx, keys)
		if err != nil || len(m) != len(present) {
			t.Fatalf("BatchGet = %d values, %v", len(m), err)
		}
	})
	if d := s.Metrics().Snapshot().Sub(before); d.BatchGets != 2*101 {
		t.Fatalf("BatchGets = %d over 101 calls, want one per shard", d.BatchGets)
	}
	want := testing.AllocsPerRun(100, func() {
		sink = make(map[string][]byte, len(keys))
		for _, k := range present {
			sink[k] = make([]byte, len(value))
		}
	})
	t.Logf("4-key BatchGet over 2 shards: %v allocs; result map + %d copies: %v", got, len(present), want)
	if got > want {
		t.Errorf("BatchGet costs %v allocs, want %v (the result map and %d copies)", got, want, len(present))
	}
	if got := testing.AllocsPerRun(100, func() {
		if err := s.BatchDelete(ctx, keys); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("BatchDelete of %d keys costs %v allocs, want 0", len(keys), got)
	}
}
