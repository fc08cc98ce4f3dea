package core

// fallback_test.go pins the partial-metadata read fallback (read.go): a
// node whose in-memory metadata is a subset of the Transaction Commit Set —
// after a truncated bootstrap or a budget spill — recovers a
// key's commit records from storage on a local miss. The tests switch the
// mode on directly; budget_test.go reaches it through BootstrapLimit.

import (
	"context"
	"errors"
	"testing"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage/kvengine"
)

// newPartialReader returns a node over store in partial-metadata mode with
// an empty metadata cache, so every first read takes the storage fallback.
func newPartialReader(t *testing.T, store *kvengine.DynamoDB, mutate ...func(*Config)) *Node {
	t.Helper()
	cfg := Config{NodeID: "reader", Store: store, Clock: idgen.NewVirtualClock(1000, 1)}
	for _, m := range mutate {
		m(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.partialMeta.Store(true)
	return n
}

// TestReadFallbackRecoversUnknownKey: a node that never saw a key's commit
// metadata (another node committed it and no multicast round reached this
// node) still serves the key by recovering metadata from storage.
func TestReadFallbackRecoversUnknownKey(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	writer, err := NewNode(Config{NodeID: "writer", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, writer, map[string]string{"a": "va", "b": "vb"})

	reader := newPartialReader(t, store)
	ctx := context.Background()
	txid, err := reader.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "va", "b": "vb"} {
		v, err := reader.Get(ctx, txid, k)
		if err != nil {
			t.Fatalf("Get(%s) = %v", k, err)
		}
		if string(v) != want {
			t.Fatalf("Get(%s) = %q, want %q", k, v, want)
		}
	}
	if err := reader.AbortTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	if snap := reader.Metrics().Snapshot(); snap.RemoteFetches == 0 {
		t.Error("RemoteFetches = 0, fallback did not run")
	}
}

// TestReadFallbackFindsSpilledVersion: a transaction whose every key
// spilled writes no data object, only spill objects and its record. The
// record's write set lets a partial-metadata reader find the versions in
// its Commit Set scan and read them from the spill keys.
func TestReadFallbackFindsSpilledVersion(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	writer, err := NewNode(Config{NodeID: "writer", Store: store,
		Clock: idgen.NewVirtualClock(0, 1), SpillThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, writer, map[string]string{"a": "va", "b": "vb"})

	reader := newPartialReader(t, store)
	ctx := context.Background()
	txid, err := reader.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "va", "b": "vb"} {
		v, err := reader.Get(ctx, txid, k)
		if err != nil {
			t.Fatalf("Get(%s) = %v", k, err)
		}
		if string(v) != want {
			t.Fatalf("Get(%s) = %q, want %q", k, v, want)
		}
	}
	if err := reader.AbortTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
}

// TestReadFallbackPackedLayout: a transaction packed into its inline
// record leaves no per-key data object, and the fallback's Commit Set scan
// finds it beside a two-phase one.
func TestReadFallbackPackedLayout(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	writer, err := NewNode(Config{NodeID: "writer", Store: store,
		Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, writer, map[string]string{"p": "vp", "q": "vq"})
	big := string(make([]byte, maxInlineRecord))
	commitTxn(t, writer, map[string]string{"r": big})
	if keys, _ := store.List(context.Background(), records.DataPrefix); len(keys) != 1 {
		t.Fatalf("data keys = %q, want only r's", keys)
	}

	reader := newPartialReader(t, store)
	ctx := context.Background()
	txid, _ := reader.StartTransaction(ctx)
	v, err := reader.Get(ctx, txid, "p")
	if err != nil || string(v) != "vp" {
		t.Fatalf("inline fallback Get = %q, %v", v, err)
	}
	if v, err := reader.Get(ctx, txid, "r"); err != nil || string(v) != big {
		t.Fatalf("two-phase fallback Get = %d bytes, %v", len(v), err)
	}
}

// TestReadFallbackSkipsUncommittedVersions: a data key persisted by an
// in-flight (or crashed) transaction has no commit record; the fallback
// must not surface it — that would be a dirty read.
func TestReadFallbackSkipsUncommittedVersions(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	writer, err := NewNode(Config{NodeID: "writer", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, writer, map[string]string{"k": "committed"})
	// A newer version whose transaction never committed (crash between
	// step 1 and step 2 of the write-ordering protocol).
	ctx := context.Background()
	dirty := idgen.ID{Timestamp: 1 << 40, UUID: "crashed"}
	if err := store.Put(ctx, string(records.AppendDataKey(nil, "k", dirty)), []byte("dirty")); err != nil {
		t.Fatal(err)
	}

	reader := newPartialReader(t, store)
	txid, _ := reader.StartTransaction(ctx)
	v, err := reader.Get(ctx, txid, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "committed" {
		t.Fatalf("Get = %q, want the committed version", v)
	}
}

// TestReadFallbackMissingKey: a key that genuinely does not exist still
// returns ErrKeyNotFound after the fallback finds nothing.
func TestReadFallbackMissingKey(t *testing.T) {
	n := newPartialReader(t, kvengine.NewDynamoDB(kvengine.Options{}))
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, txid, "ghost"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Get missing key = %v, want ErrKeyNotFound", err)
	}
}

// TestVanishedVersionKeepsPinnedRecord pins the vote/delete race of a
// symmetric cluster (read.go): when a multi-key record's payload is
// collected after a transaction has already read one of its keys, reading
// a second key must (a) not corrupt the transaction's read-set resolution
// — the pinned record survives in the commit cache — and (b) fail
// retriably, never with an internal bookkeeping error.
func TestVanishedVersionKeepsPinnedRecord(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	writer, err := NewNode(Config{NodeID: "writer", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	old := commitTxn(t, writer, map[string]string{"k1": "old1", "k2": "old2"})

	reader := newPartialReader(t, store)
	ctx := context.Background()
	txid, err := reader.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := reader.Get(ctx, txid, "k1"); err != nil || string(v) != "old1" {
		t.Fatalf("Get(k1) = %q, %v", v, err)
	}

	// The global GC wins the race: newer versions land, and the old
	// transaction's data and commit record are deleted from storage.
	commitTxn(t, writer, map[string]string{"k1": "new1", "k2": "new2"})
	for _, k := range []string{"k1", "k2"} {
		if err := store.Delete(ctx, string(records.AppendDataKey(nil, k, old))); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Delete(ctx, records.CommitKey(old)); err != nil {
		t.Fatal(err)
	}

	// Reading k2 must fail retriably (ErrNoValidVersion after the
	// vanished version is forgotten, or ErrVersionVanished), never with
	// the internal "missing from commit cache" error.
	if _, err := reader.Get(ctx, txid, "k2"); err == nil {
		t.Fatal("Get(k2) succeeded; expected a retriable failure")
	} else if !errors.Is(err, ErrNoValidVersion) && !errors.Is(err, ErrVersionVanished) {
		t.Fatalf("Get(k2) = %v, want ErrNoValidVersion or ErrVersionVanished", err)
	}
	// The pinned record must still resolve for the read set: a re-read
	// of k1 must not hit internal errors either — its version is gone,
	// so either retriable failure is correct (ErrNoValidVersion once the
	// version is forgotten, ErrVersionVanished if re-selected).
	if _, err := reader.Get(ctx, txid, "k1"); !errors.Is(err, ErrNoValidVersion) && !errors.Is(err, ErrVersionVanished) {
		t.Fatalf("re-read of k1 = %v, want a retriable read failure", err)
	}
	if err := reader.AbortTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}

	// A fresh transaction converges on the superseding state.
	txid2, _ := reader.StartTransaction(ctx)
	for k, want := range map[string]string{"k1": "new1", "k2": "new2"} {
		v, err := reader.Get(ctx, txid2, k)
		if err != nil || string(v) != want {
			t.Fatalf("fresh Get(%s) = %q, %v", k, v, err)
		}
	}
}
