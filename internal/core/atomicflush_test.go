package core

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"

	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/storage/dynamosim"
	"aft/internal/telemetry"
)

// The flush takes §3.3's two write steps in one BatchPut only on an engine
// that reports AtomicBatches; these tests pin the call sequence on both
// sides of that choice and the order the one-call path falls back to.

// callLogStore logs every write call it receives: "batch:" plus the sorted
// keys for a BatchPut, "put:" plus the key for a Put. With atomic set it
// reports the WAL's capabilities; otherwise the inner engine's.
type callLogStore struct {
	storage.Store
	atomic bool
	// failBatch fails every BatchPut before anything is applied; refuse
	// fails the point write of any key containing it.
	failBatch bool
	refuse    string

	mu    sync.Mutex
	calls []string
}

func (s *callLogStore) Capabilities() storage.Capabilities {
	if s.atomic {
		return storage.Capabilities{BatchWrites: true, AtomicBatches: true}
	}
	return s.Store.Capabilities()
}

func (s *callLogStore) log(call string) {
	s.mu.Lock()
	s.calls = append(s.calls, call)
	s.mu.Unlock()
}

func (s *callLogStore) BatchPut(ctx context.Context, items map[string][]byte) error {
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	s.log("batch:" + strings.Join(keys, ","))
	if s.failBatch {
		return errors.New("calllog: batch refused")
	}
	return s.Store.BatchPut(ctx, items)
}

func (s *callLogStore) Put(ctx context.Context, key string, value []byte) error {
	s.log("put:" + key)
	if s.refuse != "" && strings.Contains(key, s.refuse) {
		return errors.New("calllog: write refused")
	}
	return s.Store.Put(ctx, key, value)
}

// flushOf runs one flush of reqs on a node over store and returns the
// number of chunks it wrote.
func flushOf(t *testing.T, store storage.Store, reqs ...*commitReq) int {
	t.Helper()
	n, err := NewNode(Config{NodeID: "test", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	sc := flushScratchPool.Get().(*flushScratch)
	sc.batch = append(sc.batch, reqs...)
	n.flushCommits(context.Background(), sc)
	calls := sc.calls
	sc.release()
	return calls
}

// keysOf returns the storage keys f selects from each request, sorted.
func keysOf(f func(*commitReq) []kv, reqs ...*commitReq) string {
	var keys []string
	for _, req := range reqs {
		for _, it := range f(req) {
			keys = append(keys, it.key)
		}
	}
	slices.Sort(keys)
	return strings.Join(keys, ",")
}

func TestAtomicEngineFlushIsOneBatchPut(t *testing.T) {
	store := &callLogStore{Store: dynamosim.New(dynamosim.Options{}), atomic: true}
	a, b, c, d := mkCommitReq(t, 1, "a1", "a2"), mkCommitReq(t, 2, "b1"), mkCommitReq(t, 3, "c1", "c2", "c3"), mkCommitReq(t, 4, "d1")
	if calls := flushOf(t, store, a, b, c, d); calls != 1 {
		t.Fatalf("flush wrote %d chunks, want 1", calls)
	}
	if want := []string{"batch:" + keysOf(writesOf, a, b, c, d)}; !slices.Equal(store.calls, want) {
		t.Fatalf("group flush calls = %q, want %q", store.calls, want)
	}
	for _, req := range []*commitReq{a, b, c, d} {
		if req.err != nil {
			t.Fatalf("member failed: %v", req.err)
		}
	}

	// A solo commit through the public path: its data and its record are
	// two items, so they too are one BatchPut and no Put.
	store.calls = nil
	n, err := NewNode(Config{NodeID: "solo", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, n, map[string]string{"solo": "v"})
	if len(store.calls) != 1 || !strings.HasPrefix(store.calls[0], "batch:"+records.CommitPrefix) ||
		strings.Count(store.calls[0], ",") != 1 {
		t.Fatalf("solo commit calls = %q, want one BatchPut of record and data", store.calls)
	}
}

func TestAtomicEngineFallbackWritesDataBeforeRecord(t *testing.T) {
	inner := dynamosim.New(dynamosim.Options{})
	store := &callLogStore{Store: inner, atomic: true, failBatch: true, refuse: "lost"}
	a, b, c := mkCommitReq(t, 1, "a1", "a2"), mkCommitReq(t, 2, "b1", "b-lost", "b3"), mkCommitReq(t, 3, "c1")
	flushOf(t, store, a, b, c)

	// The refused batch, then every member's data before its record; the
	// loser's walk stops at the write that failed.
	want := []string{"batch:" + keysOf(writesOf, a, b, c)}
	for _, it := range a.writes {
		want = append(want, "put:"+it.key)
	}
	want = append(want, "put:"+b.writes[0].key, "put:"+b.writes[1].key)
	for _, it := range c.writes {
		want = append(want, "put:"+it.key)
	}
	if !slices.Equal(store.calls, want) {
		t.Fatalf("fallback calls =\n %q\nwant\n %q", store.calls, want)
	}
	if a.err != nil || c.err != nil {
		t.Fatalf("flush-mates failed: a=%v c=%v", a.err, c.err)
	}
	if b.err == nil || !strings.Contains(b.err.Error(), "aft: persisting write set") {
		t.Fatalf("loser's error = %v, want a write-set failure", b.err)
	}
	if _, err := inner.Get(context.Background(), recordOf(b)[0].key); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("loser's commit record was written: %v", err)
	}

	// A refused RECORD write is named as one.
	store = &callLogStore{Store: inner, atomic: true, failBatch: true, refuse: records.CommitPrefix}
	e := mkCommitReq(t, 5, "e1")
	flushOf(t, store, e)
	if e.err == nil || !strings.Contains(e.err.Error(), "aft: persisting commit record") {
		t.Fatalf("error = %v, want a commit-record failure", e.err)
	}
}

func TestOrderedEngineFlushKeepsTwoPhases(t *testing.T) {
	store := &callLogStore{Store: dynamosim.New(dynamosim.Options{})}
	a, b, c := mkCommitReq(t, 1, "a1", "a2"), mkCommitReq(t, 2, "b1"), mkCommitReq(t, 3, "c1", "c2", "c3")
	if calls := flushOf(t, store, a, b, c); calls != 2 {
		t.Fatalf("flush wrote %d chunks, want 2", calls)
	}
	want := []string{"batch:" + keysOf(dataOf, a, b, c), "batch:" + keysOf(recordOf, a, b, c)}
	if !slices.Equal(store.calls, want) {
		t.Fatalf("ordered flush calls = %q, want %q", store.calls, want)
	}
}

// TestFlushSpanCountsCalls: a traced commit's gc.flush span says how many
// storage calls its flush sent, which is which path it took: the atomic
// path is one call, the ordered one two, or more when a phase is several
// chunks (five keys at a batch limit of two are three data calls).
func TestFlushSpanCountsCalls(t *testing.T) {
	two := map[string]string{"a": "1", "b": "2"}
	five := map[string]string{"a": "1", "b": "2", "c": "3", "d": "4", "e": "5"}
	for _, tc := range []struct {
		name  string
		store func() storage.Store
		kvs   map[string]string
		calls string
	}{
		{"atomic", func() storage.Store {
			return &callLogStore{Store: dynamosim.New(dynamosim.Options{}), atomic: true}
		}, two, "1"},
		{"ordered", func() storage.Store {
			return &callLogStore{Store: dynamosim.New(dynamosim.Options{})}
		}, two, "2"},
		{"chunked", func() storage.Store {
			return newRendezvousStore(storage.Capabilities{BatchWrites: true, MaxBatchSize: 2}, 3, 1)
		}, five, "4"},
	} {
		tracer := telemetry.NewTracer(telemetry.TracerOptions{Node: "n", SampleEvery: 1, SlowThreshold: -1})
		n, err := NewNode(Config{NodeID: "n", Store: tc.store(), Tracer: tracer})
		if err != nil {
			t.Fatal(err)
		}
		commitTxn(t, n, tc.kvs)
		var calls string
		for _, rec := range tracer.Snapshot() {
			for _, sp := range rec.Spans {
				if sp.Name == "gc.flush" {
					calls = sp.Attrs["calls"]
				}
			}
		}
		if calls != tc.calls {
			t.Fatalf("%s: gc.flush calls = %q, want %q", tc.name, calls, tc.calls)
		}
	}
}
