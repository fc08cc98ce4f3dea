//go:build !race

package faultmgr

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aft/internal/latency"
	"aft/internal/storage/kvengine"
)

// TestCollectKeepsPaceOnDynamoDB: a global GC round's deletes go out as one
// BatchDelete per list, whose BatchWriteItem requests the engine sends
// together. So one round retiring 5 000 two-key transactions on
// DynamoDB's latency profile waits about 20 waves of requests, not 600
// requests one after another (≥ 600 ms at a tenth of modelled time).
// It bounds wall time, so it runs without the race detector, which
// multiplies the round's own work.
func TestCollectKeepsPaceOnDynamoDB(t *testing.T) {
	const collected, pairs = 5000, 50
	sleeper := &latency.Sleeper{}
	store := kvengine.NewDynamoDB(kvengine.Options{
		Latency: latency.NewModel(latency.DynamoDBProfile(), 1),
		Sleeper: sleeper,
	})
	n := newNode(t, store, "n1")
	for i := range collected + pairs {
		commit(t, n, map[string]string{
			fmt.Sprintf("a%d", i%pairs): "v",
			fmt.Sprintf("b%d", i%pairs): "v",
		})
	}
	m := New(store, StaticMembership{n})
	m.Ingest(n.ID(), n.Drain())
	n.SweepLocalMetadata(0)
	sleeper.Scale = 0.1
	start := time.Now()
	removed, err := m.CollectOnce(context.Background(), 0)
	took := time.Since(start)
	if err != nil || len(removed) != collected {
		t.Fatalf("round collected %d transactions, %v; want %d", len(removed), err, collected)
	}
	t.Logf("round retiring %d transactions: %v", collected, took)
	if took >= 200*time.Millisecond {
		t.Errorf("round retiring %d transactions took %v, want < 200ms", collected, took)
	}
}
