package core

// packed_test.go pins §8's one object per transaction: a small unspilled
// write set is packed into its own commit record (an inline record), which
// the commit writes in one Put and every read of the transaction's versions
// fetches.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

func newPackedNode(t *testing.T) (*Node, *kvengine.Store) {
	t.Helper()
	store := kvengine.NewS3(kvengine.Options{})
	n, err := NewNode(Config{
		NodeID: "packed",
		Store:  store,
		Clock:  idgen.NewVirtualClock(0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, store
}

func TestPackedCommitWritesOneObject(t *testing.T) {
	// A 10-write transaction over S3 costs 1 storage write, its record,
	// instead of 11.
	n, store := newPackedNode(t)
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	for i := 0; i < 10; i++ {
		if err := n.Put(ctx, txid, fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	id, err := n.CommitTransaction(ctx, txid)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Metrics().Puts.Load(); got != 1 {
		t.Fatalf("storage puts = %d, want 1 (the commit record)", got)
	}
	if keys, _ := store.List(ctx, ""); len(keys) != 1 || keys[0] != records.CommitKey(id) {
		t.Fatalf("storage holds %q, want only the commit record", keys)
	}
}

func TestPackedReadBack(t *testing.T) {
	n, store := newPackedNode(t)
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "a", []byte("1"))
	n.Put(ctx, txid, "b", []byte("2"))
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	gets0 := store.Metrics().Gets.Load()
	reader, _ := n.StartTransaction(ctx)
	for k, want := range map[string]string{"a": "1", "b": "2"} {
		v, err := n.Get(ctx, reader, k)
		if err != nil || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
	if got := store.Metrics().Gets.Load() - gets0; got != 2 {
		t.Fatalf("storage gets = %d, want 2 (the record, once per key)", got)
	}
}

func TestPackedReadAtomicityPreserved(t *testing.T) {
	// The §3.2 fractured-read example must still hold when each
	// transaction's values live in its record.
	n, _ := newPackedNode(t)
	ctx := context.Background()
	commitTxnOn(t, n, map[string]string{"l": "l1"})
	commitTxnOn(t, n, map[string]string{"k": "k2", "l": "l2"})
	txid, _ := n.StartTransaction(ctx)
	vk, err := n.Get(ctx, txid, "k")
	if err != nil || string(vk) != "k2" {
		t.Fatalf("read k = %q, %v", vk, err)
	}
	vl, err := n.Get(ctx, txid, "l")
	if err != nil || string(vl) != "l2" {
		t.Fatalf("read l = %q, %v (fractured under inline records)", vl, err)
	}
}

func commitTxnOn(t *testing.T, n *Node, kvs map[string]string) idgen.ID {
	t.Helper()
	ctx := context.Background()
	txid, err := n.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range kvs {
		if err := n.Put(ctx, txid, k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	id, err := n.CommitTransaction(ctx, txid)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestPackedWithDataCache(t *testing.T) {
	store := kvengine.NewS3(kvengine.Options{})
	n, err := NewNode(Config{
		NodeID:          "packed-cache",
		Store:           store,
		EnableDataCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	commitTxnOn(t, n, map[string]string{"a": "1", "b": "2"})
	gets0 := store.Metrics().Gets.Load()
	// The commit warmed the cache with each value under its entry, so both
	// reads are served without touching storage.
	reader, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, reader, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(ctx, reader, "b"); err != nil {
		t.Fatal(err)
	}
	if got := store.Metrics().Gets.Load() - gets0; got != 0 {
		t.Fatalf("storage gets = %d, want 0 (values cached at commit)", got)
	}
	if hits := n.Metrics().Snapshot().CacheHits; hits != 2 {
		t.Fatalf("cache hits = %d, want 2", hits)
	}
}

func TestPackedBootstrapAndRecovery(t *testing.T) {
	store := kvengine.NewS3(kvengine.Options{})
	n1, _ := NewNode(Config{NodeID: "p1", Store: store})
	commitTxnOn(t, n1, map[string]string{"k": "v"})

	n2, _ := NewNode(Config{NodeID: "p2", Store: store})
	ctx := context.Background()
	if err := n2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if recs := n2.KnownCommits(); len(recs) != 1 || !recs[0].Inline {
		t.Fatalf("bootstrapped records = %+v, want one inline record", recs)
	}
	txid, _ := n2.StartTransaction(ctx)
	v, err := n2.Get(ctx, txid, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("read of inline commit on fresh node = %q, %v", v, err)
	}
}

func TestPackedGlobalGCDeletesPackObject(t *testing.T) {
	n, store := newPackedNode(t)
	ctx := context.Background()
	id1 := commitTxnOn(t, n, map[string]string{"k": "old", "l": "old"})
	commitTxnOn(t, n, map[string]string{"k": "new", "l": "new"})
	recs := n.KnownCommits()
	if len(recs) != 2 || !recs[0].Inline {
		t.Fatalf("setup: %d records, inline=%v", len(recs), recs[0].Inline)
	}
	// Every key of the superseded transaction resolves to its record: one
	// storage key holds the whole version set.
	for _, k := range recs[0].WriteSet {
		if got := string(recs[0].AppendStorageKeyFor(nil, k)); got != records.CommitKey(id1) {
			t.Fatalf("storage key of %q = %q, want the record %q", k, got, records.CommitKey(id1))
		}
	}
	if err := store.Delete(ctx, records.CommitKey(id1)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(ctx, records.CommitKey(id1)); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("record after delete: %v", err)
	}
}

func TestPackedSpillFallsBackToUnpacked(t *testing.T) {
	store := kvengine.NewS3(kvengine.Options{})
	n, err := NewNode(Config{NodeID: "p", Store: store, SpillThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "big", make([]byte, 64)) // spills
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	recs := n.KnownCommits()
	if len(recs) != 1 || recs[0].Inline {
		t.Fatalf("spilled transaction must not be inline: %+v", recs[0])
	}
	reader, _ := n.StartTransaction(ctx)
	v, err := n.Get(ctx, reader, "big")
	if err != nil || len(v) != 64 {
		t.Fatalf("read = %d bytes, %v", len(v), err)
	}
}

// TestInlineCapCommitsTwoPhase: a write set whose record with its values
// would pass maxInlineRecord commits two-phase — a BatchPut of its data
// keys, then a Put of its record — and reads back, on DynamoDB with its
// 400 KB item limit.
func TestInlineCapCommitsTwoPhase(t *testing.T) {
	ctx := context.Background()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n, err := NewNode(Config{NodeID: "cap", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, maxInlineRecord/2)
	id := commitTxnOn(t, n, map[string]string{"a": string(value), "b": string(value)})
	if recs := n.KnownCommits(); len(recs) != 1 || recs[0].Inline {
		t.Fatalf("records = %+v, want one two-phase record", recs)
	}
	if m := store.Metrics(); m.Batches.Load() != 1 || m.Puts.Load() != 1 {
		t.Fatalf("%d BatchPuts and %d Puts, want 1 and 1", m.Batches.Load(), m.Puts.Load())
	}
	if _, err := store.Get(ctx, string(records.AppendDataKey(nil, "a", id))); err != nil {
		t.Fatalf("data key of a: %v", err)
	}
	reader, _ := n.StartTransaction(ctx)
	for _, k := range []string{"a", "b"} {
		if v, err := n.Get(ctx, reader, k); err != nil || len(v) != len(value) {
			t.Fatalf("Get(%s) = %d bytes, %v", k, len(v), err)
		}
	}
}
