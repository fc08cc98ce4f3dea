package core

import (
	"context"
	"errors"
	"testing"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage/dynamosim"
)

// ownNone is an ownership filter for a node owning no shard at all; the
// extreme case that exercises every fallback path.
func ownNone(string) bool { return false }

// ownOnly returns a filter owning exactly the listed keys' shards.
func ownOnly(keys ...string) func(string) bool {
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return func(k string) bool { return set[k] }
}

// TestMergeDropsNonOwnedRecords: merged records touching no owned key are
// not cached and are NOT marked locally-deleted (only owners vote in the
// sharded global GC).
func TestMergeDropsNonOwnedRecords(t *testing.T) {
	n, _ := newTestNode(t)
	n.SetOwnership(ownOnly("mine"))

	theirs := records.NewCommitRecord(idgen.ID{Timestamp: 5, UUID: "u1"}, []string{"theirs"}, "peer")
	mine := records.NewCommitRecord(idgen.ID{Timestamp: 6, UUID: "u2"}, []string{"mine"}, "peer")
	n.MergeRemoteCommits([]*records.CommitRecord{theirs, mine})

	if got := n.MetadataSize(); got != 1 {
		t.Fatalf("MetadataSize = %d, want 1 (owned record only)", got)
	}
	snap := n.Metrics().Snapshot()
	if snap.PrunedNonOwned != 1 || snap.MergedRemote != 1 {
		t.Errorf("metrics = %+v, want PrunedNonOwned=1 MergedRemote=1", snap)
	}
	if n.LocallyDeleted([]*records.CommitRecord{theirs})[0] {
		t.Error("non-owned dropped record marked locally-deleted; it must not vote")
	}
}

// TestReadFallbackRecoversNonOwnedKey: a node that never saw a key's
// commit metadata (another node committed it, multicast scoped it away)
// still serves the key by recovering metadata from storage.
func TestReadFallbackRecoversNonOwnedKey(t *testing.T) {
	store := dynamosim.New(dynamosim.Options{})
	writer, err := NewNode(Config{NodeID: "writer", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, writer, map[string]string{"a": "va", "b": "vb"})

	reader, err := NewNode(Config{NodeID: "reader", Store: store, Clock: idgen.NewVirtualClock(1000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	reader.SetOwnership(ownNone)

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

// TestReadFallbackPackedLayout: the packed layout leaves no per-key data
// objects, so the fallback scans the commit set instead.
func TestReadFallbackPackedLayout(t *testing.T) {
	store := dynamosim.New(dynamosim.Options{})
	writer, err := NewNode(Config{NodeID: "writer", Store: store,
		Clock: idgen.NewVirtualClock(0, 1), PackedLayout: true})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, writer, map[string]string{"p": "vp", "q": "vq"})

	reader, err := NewNode(Config{NodeID: "reader", Store: store,
		Clock: idgen.NewVirtualClock(1000, 1), PackedLayout: true})
	if err != nil {
		t.Fatal(err)
	}
	reader.SetOwnership(ownNone)

	ctx := context.Background()
	txid, _ := reader.StartTransaction(ctx)
	v, err := reader.Get(ctx, txid, "p")
	if err != nil || string(v) != "vp" {
		t.Fatalf("packed fallback Get = %q, %v", v, err)
	}
}

// TestReadFallbackSkipsUncommittedVersions: a data key persisted by an
// in-flight (or crashed) transaction has no commit record; the fallback
// must not surface it — that would be a dirty read.
func TestReadFallbackSkipsUncommittedVersions(t *testing.T) {
	store := dynamosim.New(dynamosim.Options{})
	writer, err := NewNode(Config{NodeID: "writer", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, writer, map[string]string{"k": "committed"})
	// A newer version whose transaction never committed (crash between
	// step 1 and step 2 of the write-ordering protocol).
	ctx := context.Background()
	dirty := idgen.ID{Timestamp: 1 << 40, UUID: "crashed"}
	if err := store.Put(ctx, records.DataKey("k", dirty), []byte("dirty")); err != nil {
		t.Fatal(err)
	}

	reader, err := NewNode(Config{NodeID: "reader", Store: store, Clock: idgen.NewVirtualClock(1000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	reader.SetOwnership(ownNone)
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
	n, _ := newTestNode(t)
	n.SetOwnership(ownNone)
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, txid, "ghost"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Get missing key = %v, want ErrKeyNotFound", err)
	}
}

// TestSweepEvictsNonOwnedWithoutSupersedence: the local GC removes
// non-owned metadata even when not superseded — owners keep the
// authoritative cache — and does not mark it locally-deleted.
func TestSweepEvictsNonOwnedWithoutSupersedence(t *testing.T) {
	n, _ := newTestNode(t)
	id := commitTxn(t, n, map[string]string{"foreign": "v"})
	n.Drain() // simulate the multicast round handing it to its owners
	n.SetOwnership(ownOnly("local"))

	removed := n.SweepLocalMetadata(0)
	if len(removed) != 1 || !removed[0].Equal(id) {
		t.Fatalf("sweep removed %v, want [%v]", removed, id)
	}
	if got := n.MetadataSize(); got != 0 {
		t.Fatalf("MetadataSize = %d after sweep", got)
	}
	if n.LocallyDeleted(gcRecs([]string{"foreign"}, id))[0] {
		t.Error("non-owned sweep marked the record locally-deleted")
	}
	// The key stays serveable via the storage fallback.
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	v, err := n.Get(ctx, txid, "foreign")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get after non-owned sweep = %q, %v", v, err)
	}
}

// TestSweepKeepsPinnedNonOwned: an active reader pins even non-owned
// metadata against the sweep (§5.1).
func TestSweepKeepsPinnedNonOwned(t *testing.T) {
	n, _ := newTestNode(t)
	commitTxn(t, n, map[string]string{"foreign": "v"})
	ctx := context.Background()
	txid, err := n.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(ctx, txid, "foreign"); err != nil {
		t.Fatal(err)
	}
	n.SetOwnership(ownOnly("local"))
	if removed := n.SweepLocalMetadata(0); len(removed) != 0 {
		t.Fatalf("sweep removed pinned records: %v", removed)
	}
	if err := n.AbortTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	if removed := n.SweepLocalMetadata(0); len(removed) != 1 {
		t.Fatalf("sweep after unpin removed %d, want 1", len(removed))
	}
}

// TestBootstrapScopedToOwnedShards: bootstrap warms only owned shards.
func TestBootstrapScopedToOwnedShards(t *testing.T) {
	store := dynamosim.New(dynamosim.Options{})
	seed, err := NewNode(Config{NodeID: "seed", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, seed, map[string]string{"a": "1"})
	commitTxn(t, seed, map[string]string{"b": "2"})
	commitTxn(t, seed, map[string]string{"c": "3"})

	joiner, err := NewNode(Config{NodeID: "joiner", Store: store, Clock: idgen.NewVirtualClock(1000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	joiner.SetOwnership(ownOnly("b"))
	if err := joiner.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := joiner.MetadataSize(); got != 1 {
		t.Fatalf("scoped bootstrap installed %d records, want 1", got)
	}
	if vs := joiner.VersionsOf("b"); len(vs) != 1 {
		t.Fatalf("owned key has %d versions after bootstrap, want 1", len(vs))
	}
}

// TestVanishedVersionKeepsPinnedRecord is the regression test for the
// sharded GC race: when a multi-key record's payload is collected after a
// transaction has already read one of its keys, reading a second key must
// (a) not corrupt the transaction's read-set resolution — the pinned
// record survives in the commit cache — and (b) fail retriably, never
// with an internal bookkeeping error.
func TestVanishedVersionKeepsPinnedRecord(t *testing.T) {
	store := dynamosim.New(dynamosim.Options{})
	writer, err := NewNode(Config{NodeID: "writer", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	old := commitTxn(t, writer, map[string]string{"k1": "old1", "k2": "old2"})

	reader, err := NewNode(Config{NodeID: "reader", Store: store, Clock: idgen.NewVirtualClock(1000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	reader.SetOwnership(ownNone)
	ctx := context.Background()
	txid, err := reader.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := reader.Get(ctx, txid, "k1"); err != nil || string(v) != "old1" {
		t.Fatalf("Get(k1) = %q, %v", v, err)
	}

	// Simulate the owner-voted global GC: newer versions land, the old
	// transaction's data and commit record are deleted from storage.
	newer := commitTxn(t, writer, map[string]string{"k1": "new1", "k2": "new2"})
	_ = newer
	for _, k := range []string{"k1", "k2"} {
		if err := store.Delete(ctx, records.DataKey(k, old)); err != nil {
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

// TestSweepKeepsIdempotencyMarker: sweeping a freshly committed non-owned
// record must not break idempotent commit retries (§3.1) — a client whose
// commit response was lost retries with the same txid and must get the
// original ID, not ErrTxnNotFound (which would trigger a full redo and
// double-apply non-idempotent writes).
func TestSweepKeepsIdempotencyMarker(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	txid, err := n.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Put(ctx, txid, "foreign", []byte("v")); err != nil {
		t.Fatal(err)
	}
	id, err := n.CommitTransaction(ctx, txid)
	if err != nil {
		t.Fatal(err)
	}
	n.Drain()
	n.SetOwnership(ownOnly("local"))
	if removed := n.SweepLocalMetadata(0); len(removed) != 1 {
		t.Fatalf("sweep removed %d records, want 1", len(removed))
	}

	retry, err := n.CommitTransaction(ctx, txid)
	if err != nil {
		t.Fatalf("idempotent commit retry after non-owned sweep = %v", err)
	}
	if !retry.Equal(id) {
		t.Fatalf("retry returned %v, want original %v", retry, id)
	}

	// The global GC reclaims the marker once the transaction's data is
	// collected.
	n.ForgetDeleted(gcRecs([]string{"foreign"}, id))
	if _, err := n.CommitTransaction(ctx, txid); !errors.Is(err, ErrTxnNotFound) {
		t.Fatalf("retry after ForgetDeleted = %v, want ErrTxnNotFound", err)
	}
}
