package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
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

// commitReq is one transaction's input to the write routine: its storage
// writes in §3.3 order, the commit record's slot last, and the record.
type commitReq struct {
	writes []kv
	rec    *records.CommitRecord
}

// mkCommitReq builds the writes commitTransaction would hand to flush for
// a transaction writing keys, in the order given, at timestamp ts, each
// key's value the key itself.
func mkCommitReq(t *testing.T, ts int64, keys ...string) *commitReq {
	t.Helper()
	id := idgen.ID{Timestamp: ts, UUID: fmt.Sprintf("u%d", ts)}
	req := &commitReq{rec: records.NewCommitRecord(id, keys, "test")}
	for _, k := range keys {
		req.writes = append(req.writes, kv{string(records.AppendDataKey(nil, k, id)), []byte(k)})
	}
	// The record's value is flush's to encode.
	req.writes = append(req.writes, kv{key: records.CommitKey(id)})
	return req
}

// flushOf runs req's flush on a fresh node over store and returns its
// outcome.
func flushOf(t *testing.T, store storage.Store, req *commitReq) error {
	t.Helper()
	n, err := NewNode(Config{NodeID: "test", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	sc := flushScratchPool.Get().(*flushScratch)
	defer sc.release()
	sc.writes = append(sc.writes[:0], req.writes...)
	return n.flush(context.Background(), sc, req.rec)
}

// batchOf is the call log entry of one BatchPut of writes.
func batchOf(writes []kv) string {
	keys := make([]string, 0, len(writes))
	for _, it := range writes {
		keys = append(keys, it.key)
	}
	slices.Sort(keys)
	return "batch:" + strings.Join(keys, ",")
}

// putsOf are the call log entries of one point Put per write, in order.
func putsOf(writes ...kv) []string {
	var calls []string
	for _, it := range writes {
		calls = append(calls, "put:"+it.key)
	}
	return calls
}

func TestAtomicEngineFlushIsOneBatchPut(t *testing.T) {
	store := &callLogStore{Store: kvengine.NewDynamoDB(kvengine.Options{}), atomic: true}
	req := mkCommitReq(t, 1, "a1", "a2", "a3")
	if err := flushOf(t, store, req); err != nil {
		t.Fatal(err)
	}
	if want := []string{batchOf(req.writes)}; !slices.Equal(store.calls, want) {
		t.Fatalf("flush calls = %q, want %q", store.calls, want)
	}

	// A solo commit through the public path: its data and its record are
	// two items, so they too are one BatchPut and no Put.
	store.calls = nil
	n, err := NewNode(Config{NodeID: "solo", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, n, map[string]string{"solo": twoPhase("v")})
	if len(store.calls) != 1 || !strings.HasPrefix(store.calls[0], "batch:"+records.CommitPrefix) ||
		strings.Count(store.calls[0], ",") != 1 {
		t.Fatalf("solo commit calls = %q, want one BatchPut of record and data", store.calls)
	}

	// A small write set rides inside its record: one Put.
	store.calls = nil
	commitTxn(t, n, map[string]string{"a": "v", "b": "v"})
	if len(store.calls) != 1 || !strings.HasPrefix(store.calls[0], "put:"+records.CommitPrefix) {
		t.Fatalf("inline commit calls = %q, want one Put of the record", store.calls)
	}
}

func TestAtomicEngineFallbackWritesDataBeforeRecord(t *testing.T) {
	inner := kvengine.NewDynamoDB(kvengine.Options{})

	// The refused batch, then every write in order: the data, then the
	// record.
	store := &callLogStore{Store: inner, atomic: true, failBatch: true}
	a := mkCommitReq(t, 1, "a1", "a2")
	if err := flushOf(t, store, a); err != nil {
		t.Fatal(err)
	}
	if want := append([]string{batchOf(a.writes)}, putsOf(a.writes...)...); !slices.Equal(store.calls, want) {
		t.Fatalf("fallback calls =\n %q\nwant\n %q", store.calls, want)
	}

	// The walk stops at the write that failed: neither the data after it
	// nor the record is written.
	store = &callLogStore{Store: inner, atomic: true, failBatch: true, refuse: "lost"}
	b := mkCommitReq(t, 2, "b1", "b-lost", "b3")
	err := flushOf(t, store, b)
	if want := append([]string{batchOf(b.writes)}, putsOf(b.writes[:2]...)...); !slices.Equal(store.calls, want) {
		t.Fatalf("fallback calls =\n %q\nwant\n %q", store.calls, want)
	}
	if err == nil || !strings.Contains(err.Error(), "aft: persisting write set") {
		t.Fatalf("error = %v, want a write-set failure", err)
	}
	if _, err := inner.Get(context.Background(), b.writes[3].key); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("the failed commit's record was written: %v", err)
	}

	// A refused RECORD write is named as one.
	store = &callLogStore{Store: inner, atomic: true, failBatch: true, refuse: records.CommitPrefix}
	err = flushOf(t, store, mkCommitReq(t, 5, "e1"))
	if err == nil || !strings.Contains(err.Error(), "aft: persisting commit record") {
		t.Fatalf("error = %v, want a commit-record failure", err)
	}
}

func TestOrderedEngineFlushKeepsTwoPhases(t *testing.T) {
	store := &callLogStore{Store: kvengine.NewDynamoDB(kvengine.Options{})}
	req := mkCommitReq(t, 1, "c1", "c2", "c3")
	if err := flushOf(t, store, req); err != nil {
		t.Fatal(err)
	}
	want := append([]string{batchOf(req.writes[:3])}, putsOf(req.writes[3])...)
	if !slices.Equal(store.calls, want) {
		t.Fatalf("ordered flush calls = %q, want %q", store.calls, want)
	}

	// A failed data phase writes no record.
	store = &callLogStore{Store: kvengine.NewDynamoDB(kvengine.Options{}), failBatch: true, refuse: "lost"}
	req = mkCommitReq(t, 2, "d1", "d-lost")
	err := flushOf(t, store, req)
	if want := append([]string{batchOf(req.writes[:2])}, putsOf(req.writes[:2]...)...); !slices.Equal(store.calls, want) {
		t.Fatalf("failed data phase calls = %q, want %q", store.calls, want)
	}
	if err == nil || !strings.Contains(err.Error(), "aft: persisting write set") {
		t.Fatalf("error = %v, want a write-set failure", err)
	}

	// A failed record phase is named as one.
	store = &callLogStore{Store: kvengine.NewDynamoDB(kvengine.Options{}), refuse: records.CommitPrefix}
	err = flushOf(t, store, mkCommitReq(t, 3, "f1"))
	if err == nil || !strings.Contains(err.Error(), "aft: persisting commit record") {
		t.Fatalf("error = %v, want a commit-record failure", err)
	}
}

// TestFlushSpanCountsCalls: a traced commit's gc.flush span says how many
// storage calls its flush sent, which is which path it took: an inline
// record and the atomic path are one call, the ordered one two, or more
// when a phase is several chunks (five keys at a batch limit of two are
// three data calls).
func TestFlushSpanCountsCalls(t *testing.T) {
	small := map[string]string{"a": "1", "b": "2"}
	two := map[string]string{"a": twoPhase("1"), "b": twoPhase("2")}
	five := keysValued("k", 5)
	for _, tc := range []struct {
		name  string
		store func() storage.Store
		kvs   map[string]string
		calls string
	}{
		{"inline", func() storage.Store {
			return &callLogStore{Store: kvengine.NewDynamoDB(kvengine.Options{})}
		}, small, "1"},
		{"atomic", func() storage.Store {
			return &callLogStore{Store: kvengine.NewDynamoDB(kvengine.Options{}), atomic: true}
		}, two, "1"},
		{"ordered", func() storage.Store {
			return &callLogStore{Store: kvengine.NewDynamoDB(kvengine.Options{})}
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

// TestPooledScratchCarriesNoStaleWrites: a commit's storage writes live in
// a pooled scratch the next commit reuses, so a 3-key commit followed by a
// 1-key commit on the same node must send exactly the second commit's data
// key and commit key, on either engine kind: none of the first commit's
// writes survive in the scratch.
func TestPooledScratchCarriesNoStaleWrites(t *testing.T) {
	for _, atomic := range []bool{true, false} {
		store := &callLogStore{Store: kvengine.NewDynamoDB(kvengine.Options{}), atomic: atomic}
		n, err := NewNode(Config{NodeID: "reuse", Store: store})
		if err != nil {
			t.Fatal(err)
		}
		commitTxn(t, n, map[string]string{"a1": twoPhase("v"), "a2": twoPhase("v"), "a3": twoPhase("v")})
		store.calls = nil
		commitTxn(t, n, map[string]string{"b1": twoPhase("v")})
		var data, commit int
		for _, call := range store.calls {
			_, keys, _ := strings.Cut(call, ":")
			for _, k := range strings.Split(keys, ",") {
				if strings.HasPrefix(k, records.CommitPrefix) {
					commit++
					continue
				}
				if !strings.HasPrefix(k, records.DataPrefix+"b1/") {
					t.Fatalf("atomic=%v: second commit wrote %q (calls %q)", atomic, k, store.calls)
				}
				data++
			}
		}
		if data != 1 || commit != 1 {
			t.Fatalf("atomic=%v: second commit calls = %q, want one data key of b1 and one commit key", atomic, store.calls)
		}
	}
}
