package main

import (
	"context"
	"testing"

	"aft/aft"
)

// TestTracedStoreCounts drives the decorator with a scripted sequence and
// checks every call, item and byte is counted once, that spans are recorded
// only while a log is attached, and that calls reach the engine.
func TestTracedStoreCounts(t *testing.T) {
	ctx := context.Background()
	s := newTracedStore(aft.NewDynamoDBStore(aft.LatencyNone, 1))

	// Untraced: counted, not timed.
	if err := s.Put(ctx, "a", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.BatchPut(ctx, map[string][]byte{"b": make([]byte, 20), "c": make([]byte, 30)}); err != nil {
		t.Fatal(err)
	}
	got := s.counts()
	if got.calls[spanStorePut] != 1 || got.calls[spanStoreBatchPut] != 1 ||
		got.items[spanStoreBatchPut] != 2 || got.bytesWritten != 60 {
		t.Fatalf("untraced counts = %+v", got)
	}

	log := newSpanLog(16)
	s.attach(log)
	before := s.counts()
	if v, err := s.Get(ctx, "a"); err != nil || len(v) != 10 {
		t.Fatalf("Get(a) = %d bytes, %v", len(v), err)
	}
	if vs, err := s.BatchGet(ctx, []string{"a", "b", "c", "missing"}); err != nil || len(vs) != 3 {
		t.Fatalf("BatchGet = %d values, %v", len(vs), err)
	}
	if keys, err := s.List(ctx, ""); err != nil || len(keys) != 3 {
		t.Fatalf("List = %v, %v", keys, err)
	}
	if err := s.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := s.BatchDelete(ctx, []string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "d", make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	s.attach(nil)
	if err := s.Put(ctx, "e", make([]byte, 1)); err != nil { // after detach: counted, no span
		t.Fatal(err)
	}

	d := s.counts().sub(before)
	var want storeCounts
	want.calls[spanStoreGet], want.items[spanStoreGet] = 1, 1
	want.calls[spanStorePut], want.items[spanStorePut] = 2, 2
	want.calls[spanStoreBatchGet], want.items[spanStoreBatchGet] = 1, 4
	want.calls[spanStoreList] = 1
	want.calls[spanStoreDelete], want.items[spanStoreDelete] = 1, 1
	want.calls[spanStoreBatchDelete], want.items[spanStoreBatchDelete] = 1, 2
	want.bytesWritten = 6
	if d != want {
		t.Errorf("traced window counts = %+v, want %+v", d, want)
	}
	if d.totalCalls() != 7 {
		t.Errorf("totalCalls() = %d, want 7", d.totalCalls())
	}

	spans := log.recorded()
	kinds := []spanKind{spanStoreGet, spanStoreBatchGet, spanStoreList, spanStoreDelete, spanStoreBatchDelete, spanStorePut}
	if len(spans) != len(kinds) {
		t.Fatalf("%d spans recorded, want %d", len(spans), len(kinds))
	}
	for i, k := range kinds {
		if spans[i].kind != k || spans[i].client != -1 || spans[i].dur < 0 {
			t.Errorf("span %d = %+v, want kind %s with no client", i, spans[i], spanNames[k])
		}
	}
	if spans[1].items != 4 || spans[1].bytes != 60 {
		t.Errorf("batchget span = %d items, %d bytes, want 4 and 60", spans[1].items, spans[1].bytes)
	}
	if spans[5].bytes != 5 {
		t.Errorf("put span = %d bytes, want 5", spans[5].bytes)
	}
	if keys, err := s.List(ctx, ""); err != nil || len(keys) != 2 {
		t.Errorf("engine holds %v (%v), want d and e", keys, err)
	}
}

func TestSpanLogDropsPastCapacity(t *testing.T) {
	log := newSpanLog(2)
	for i := 0; i < 5; i++ {
		log.add(span{kind: spanStoreGet, client: -1})
	}
	if n, dropped := len(log.recorded()), log.dropped.Load(); n != 2 || dropped != 3 {
		t.Errorf("recorded %d, dropped %d, want 2 and 3", n, dropped)
	}
}
