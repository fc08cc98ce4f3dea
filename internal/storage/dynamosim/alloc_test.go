//go:build !race

package dynamosim

import (
	"context"
	"testing"

	"aft/internal/latency"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

// TestBatchDeleteAllocBudget: a BatchDelete of 800 keys, 32 requests sent
// at once, allocates nothing. Each request is a sub-slice of the caller's
// keys, the one wait takes no goroutine or timer per request, and each
// request's delete groups its keys by shard on the stack.
func TestBatchDeleteAllocBudget(t *testing.T) {
	s := kvengine.NewDynamoDB(kvengine.Options{Latency: latency.NewModel(latency.DynamoDBProfile(), 1), Sleeper: latency.NoSleep})
	ctx := context.Background()
	keys := keysFor(storage.MaxCallsInFlight * kvengine.DynamoDBMaxBatch)
	for _, k := range keys {
		if err := s.Put(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		if err := s.BatchDelete(ctx, keys); err != nil {
			t.Fatal(err)
		}
	})
	if s.Len() != 0 {
		t.Fatalf("%d keys left after the delete", s.Len())
	}
	if got != 0 {
		t.Errorf("BatchDelete of %d keys costs %v allocs, want 0", len(keys), got)
	}
}
