package redissim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aft/internal/latency"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/storagetest"
)

// rtt is the round trip of every request in the timing tests.
const rtt = 50 * time.Millisecond

// TestChunkedCallsOverlap: a cluster client sends one MGET, DEL or SCAN
// per shard, all at once, so a call over both shards waits one round trip,
// not one per shard. Each shard's request still counts as one.
func TestChunkedCallsOverlap(t *testing.T) {
	t.Parallel()
	s := kvengine.NewRedis(0, kvengine.Options{
		Latency: storagetest.FixedLatency(rtt, latency.OpGet, latency.OpDelete, latency.OpList),
		Sleeper: latency.RealTime,
	})
	ctx := context.Background()
	same, other := sameShardKeys(s, 3)
	keys := append(same, other)
	for _, k := range keys {
		if err := s.Put(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	storagetest.RequireRoundTrips(t, rtt, 1, "4-key BatchGet over 2 shards", func() error {
		got, err := s.BatchGet(ctx, keys)
		if err == nil && len(got) != len(keys) {
			err = fmt.Errorf("read %d of %d keys", len(got), len(keys))
		}
		return err
	})
	storagetest.RequireRoundTrips(t, rtt, 1, "List over 2 shards", func() error {
		got, err := s.List(ctx, "key-")
		if err == nil && len(got) != len(keys) {
			err = fmt.Errorf("listed %d of %d keys", len(got), len(keys))
		}
		return err
	})
	storagetest.RequireRoundTrips(t, rtt, 1, "4-key BatchDelete over 2 shards", func() error {
		return s.BatchDelete(ctx, keys)
	})
	if s.Len() != 0 {
		t.Fatalf("%d keys left after the delete", s.Len())
	}
	if m := s.Metrics().Snapshot(); m.BatchGets != 2 || m.BatchDeletes != 2 || m.Lists != 1 {
		t.Fatalf("requests: %d MGETs, %d DELs, %d Lists; want 2, 2, 1", m.BatchGets, m.BatchDeletes, m.Lists)
	}
}
