package dynamosim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aft/internal/latency"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/storagetest"
)

// rtt is the round trip of every batched request in the timing tests.
const rtt = 50 * time.Millisecond

// keysFor returns n distinct keys.
func keysFor(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	return keys
}

// TestChunkedCallsOverlap: a call's requests go out together, at most
// storage.MaxCallsInFlight at a time, so 32 BatchWriteItem deletes of 25
// keys wait one round trip and 33 wait two, and a 9-request BatchGet waits
// one. Each request still counts as one.
func TestChunkedCallsOverlap(t *testing.T) {
	t.Parallel()
	s := kvengine.NewDynamoDB(kvengine.Options{
		Latency: storagetest.FixedLatency(rtt, latency.OpGet, latency.OpBatchWrite),
		Sleeper: latency.RealTime,
	})
	ctx := context.Background()
	one, two := storage.MaxCallsInFlight*kvengine.DynamoDBMaxBatch, (storage.MaxCallsInFlight+1)*kvengine.DynamoDBMaxBatch
	keys := keysFor(two)
	for _, k := range keys {
		if err := s.Put(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	storagetest.RequireRoundTrips(t, rtt, 1, "BatchGet of 825 keys", func() error {
		got, err := s.BatchGet(ctx, keys)
		if err == nil && len(got) != two {
			err = fmt.Errorf("read %d of %d keys", len(got), two)
		}
		return err
	})
	storagetest.RequireRoundTrips(t, rtt, 1, "BatchDelete of 32×25 keys", func() error {
		return s.BatchDelete(ctx, keys[:one])
	})
	storagetest.RequireRoundTrips(t, rtt, 2, "BatchDelete of 33×25 keys", func() error {
		return s.BatchDelete(ctx, keys)
	})
	if s.Len() != 0 {
		t.Fatalf("%d keys left after the deletes", s.Len())
	}
	m := s.Metrics().Snapshot()
	if m.BatchGets != 9 || m.BatchDeletes != 32+33 || m.BatchDeleteItems != int64(one+two) {
		t.Fatalf("requests: %d BatchGets (want 9), %d BatchDeletes of %d keys (want 65 of %d)",
			m.BatchGets, m.BatchDeletes, m.BatchDeleteItems, one+two)
	}
}
