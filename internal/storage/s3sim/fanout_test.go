package s3sim

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

// rtt is the round trip of every request in the timing tests.
const rtt = 50 * time.Millisecond

// TestChunkedCallsOverlap: a call's requests go out together, at most
// storage.MaxCallsInFlight at a time. Two DeleteObjects of 1 000 keys wait
// one round trip; a BatchGet of 32 keys, 32 point GETs, waits one and of
// 33 keys two.
func TestChunkedCallsOverlap(t *testing.T) {
	t.Parallel()
	s := kvengine.NewS3(kvengine.Options{
		Latency: storagetest.FixedLatency(rtt, latency.OpGet, latency.OpDelete),
		Sleeper: latency.RealTime,
	})
	ctx := context.Background()
	keys := make([]string, 2*kvengine.S3MaxDeleteBatch)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
		if err := s.Put(ctx, keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for waves, n := range map[int]int{1: storage.MaxCallsInFlight, 2: storage.MaxCallsInFlight + 1} {
		storagetest.RequireRoundTrips(t, rtt, waves, fmt.Sprintf("BatchGet of %d keys", n), func() error {
			got, err := s.BatchGet(ctx, keys[:n])
			if err == nil && len(got) != n {
				err = fmt.Errorf("read %d of %d keys", len(got), n)
			}
			return err
		})
	}
	storagetest.RequireRoundTrips(t, rtt, 1, "BatchDelete of 2 000 keys", func() error {
		return s.BatchDelete(ctx, keys)
	})
	if s.Len() != 0 {
		t.Fatalf("%d keys left after the delete", s.Len())
	}
	if m := s.Metrics().Snapshot(); m.BatchDeletes != 2 || m.Gets != 2*storage.MaxCallsInFlight+1 {
		t.Fatalf("requests: %d DeleteObjects (want 2), %d GETs (want %d)",
			m.BatchDeletes, m.Gets, 2*storage.MaxCallsInFlight+1)
	}
}
