package storagetest

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"aft/internal/latency"
	"aft/internal/storage"
)

// FixedLatency returns a model under which each of ops takes exactly rtt:
// no spread, no tail, no per-item cost. Any other op is free, so a test can
// fill a store with point Puts and then time its batched calls in round
// trips.
func FixedLatency(rtt time.Duration, ops ...latency.Op) *latency.Model {
	p := latency.Profile{}
	for _, op := range ops {
		p[op] = latency.Dist{Median: rtt}
	}
	return latency.NewModel(p, 1)
}

// RequireRoundTrips runs call and fails t unless it returned without error
// after n round trips of rtt: at least n·rtt and less than (n+1)·rtt.
func RequireRoundTrips(t *testing.T, rtt time.Duration, n int, what string, call func() error) {
	t.Helper()
	start := time.Now()
	err := call()
	took := time.Since(start)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if took < time.Duration(n)*rtt || took >= time.Duration(n+1)*rtt {
		t.Errorf("%s took %v, want %d round trips of %v", what, took, n, rtt)
	}
}

// UnavailableBatchCalls checks that a store that setAvailable has taken
// down fails BatchGet and BatchDelete with storage.ErrUnavailable and
// deletes none of n keys, in however many requests the engine splits them.
func UnavailableBatchCalls(t *testing.T, s storage.Store, setAvailable func(bool), n int) {
	t.Helper()
	ctx := context.Background()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
		if err := s.Put(ctx, keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	setAvailable(false)
	if _, err := s.BatchGet(ctx, keys); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("BatchGet while down = %v, want ErrUnavailable", err)
	}
	if err := s.BatchDelete(ctx, keys); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("BatchDelete while down = %v, want ErrUnavailable", err)
	}
	setAvailable(true)
	got, err := s.BatchGet(ctx, keys)
	if err != nil || len(got) != n {
		t.Fatalf("after the failed BatchDelete, BatchGet = %d of %d keys, %v", len(got), n, err)
	}
}
