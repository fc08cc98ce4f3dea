package faultmgr

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"aft/internal/core"
	"aft/internal/records"
	"aft/internal/storage/kvengine"
)

// spillNode builds a node with an aggressive spill threshold.
func spillNode(t *testing.T, store *kvengine.DynamoDB, id string) *core.Node {
	t.Helper()
	n, err := core.NewNode(core.Config{NodeID: id, Store: store, SpillThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSweepSpillsRemovesOrphans(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	n := spillNode(t, store, "n1")
	m := New(store, StaticMembership{n})

	// An orphan: a transaction spills, then its node "crashes" (we simply
	// never commit or abort).
	orphan, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, orphan, "big", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	spills, _ := store.List(ctx, records.SpillPrefix)
	if len(spills) != 1 {
		t.Fatalf("setup: %d spill keys", len(spills))
	}

	// Grace period: a cutoff in the past protects the in-flight spill.
	deleted, err := m.SweepSpills(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 0 {
		t.Fatal("sweep deleted a spill within the grace period")
	}
	// A cutoff beyond the transaction's start timestamp reclaims it.
	deleted, err = m.SweepSpills(ctx, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 1 {
		t.Fatalf("deleted = %d, want 1", deleted)
	}
	spills, _ = store.List(ctx, records.SpillPrefix)
	if len(spills) != 0 {
		t.Fatalf("spill keys left: %v", spills)
	}
}

func TestSweepSpillsKeepsCommittedData(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	n := spillNode(t, store, "n1")
	m := New(store, StaticMembership{n})

	// A committed transaction whose payload lives in the spill area.
	txid, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, txid, "big", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	m.Ingest("n1", n.Drain())

	deleted, err := m.SweepSpills(ctx, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 0 {
		t.Fatal("sweep deleted committed spill data")
	}
	// The committed value is still readable.
	reader, _ := n.StartTransaction(ctx)
	v, err := n.Get(ctx, reader, "big")
	if err != nil || len(v) != 64 {
		t.Fatalf("read after sweep = %d bytes, %v", len(v), err)
	}
}

func TestSweepSpillsChecksStorageForUnknownCommits(t *testing.T) {
	// Even if the manager's in-memory index is empty (fresh restart), a
	// spill whose transaction committed must survive: the sweep consults
	// the commit set in storage.
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	n := spillNode(t, store, "n1")
	txid, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, txid, "big", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	fresh := New(store, StaticMembership{n}) // knows nothing
	deleted, err := fresh.SweepSpills(ctx, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 0 {
		t.Fatal("restarted manager deleted a committed spill")
	}
}

// countingStore counts the manager-facing calls the spill sweep makes.
type countingStore struct {
	*kvengine.DynamoDB
	lists, batchDeletes, deletes atomic.Int64
}

func (s *countingStore) List(ctx context.Context, prefix string) ([]string, error) {
	s.lists.Add(1)
	return s.DynamoDB.List(ctx, prefix)
}

func (s *countingStore) BatchDelete(ctx context.Context, keys []string) error {
	s.batchDeletes.Add(1)
	return s.DynamoDB.BatchDelete(ctx, keys)
}

func (s *countingStore) Delete(ctx context.Context, key string) error {
	s.deletes.Add(1)
	return s.DynamoDB.Delete(ctx, key)
}

// TestRewrittenSpillCollectedWithItsVersion: a key spilled and then written
// again before commit keeps the spill layout — its final value goes to its
// spill object, which the record names — so the global GC deletes the
// object with the version. Nothing is left for the orphan sweep, which
// would otherwise find a committed UUID and keep the object forever.
func TestRewrittenSpillCollectedWithItsVersion(t *testing.T) {
	store := &countingStore{DynamoDB: kvengine.NewDynamoDB(kvengine.Options{})}
	ctx := context.Background()
	n, err := core.NewNode(core.Config{NodeID: "n1", Store: store, SpillThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	m := New(store, StaticMembership{n})
	spills := func() []string {
		t.Helper()
		keys, err := store.List(ctx, records.SpillPrefix)
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}

	txid, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, txid, "k", make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	if got := spills(); len(got) != 1 {
		t.Fatalf("setup: %d spill keys, want 1", len(got))
	}
	if err := n.Put(ctx, txid, "k", []byte("final")); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	readsValue(t, n, "k", "final")

	commit(t, n, map[string]string{"k": "newer"}) // supersede
	m.Ingest("n1", n.Drain())
	n.SweepLocalMetadata(0)
	removed, err := m.CollectOnce(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 {
		t.Fatalf("collected %d transactions, want 1", len(removed))
	}
	if left := spills(); len(left) != 0 {
		t.Fatalf("spill objects outlived their collected version: %v", left)
	}
	if deleted, err := m.SweepSpills(ctx, time.Now().Add(-time.Minute).UnixNano()); err != nil || deleted != 0 {
		t.Fatalf("sweep deleted %d, %v; want 0", deleted, err)
	}
	if left := spills(); len(left) != 0 {
		t.Fatalf("spill objects left after the sweep: %v", left)
	}
	readsValue(t, n, "k", "newer")
}

// TestSpilledVersionLeavesNoDataKey: a spilled key's version is its spill
// object alone — the record names it — and the global GC deletes it with
// the version.
func TestSpilledVersionLeavesNoDataKey(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	n := spillNode(t, store, "n1")
	m := New(store, StaticMembership{n})
	list := func(prefix string) []string {
		t.Helper()
		keys, err := store.List(ctx, prefix)
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}

	old := commit(t, n, map[string]string{"a": "spilled value a", "b": "spilled value b"})
	if got := list(records.DataPrefix); len(got) != 0 {
		t.Fatalf("a spilled transaction wrote data keys %v", got)
	}
	if got := list(records.SpillPrefix); len(got) != 2 {
		t.Fatalf("spill objects = %v, want a's and b's", got)
	}
	commit(t, n, map[string]string{"a": "x", "b": "y"}) // supersede
	m.Ingest("n1", n.Drain())
	n.SweepLocalMetadata(0)
	removed, err := m.CollectOnce(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || !removed[0].Equal(old) {
		t.Fatalf("collected %v, want [%v]", removed, old)
	}
	if left := list(records.SpillPrefix); len(left) != 0 {
		t.Fatalf("spill objects outlived their collected version: %v", left)
	}
	if got := m.Metrics().Snapshot().VersionsDeleted; got != 2 {
		t.Fatalf("VersionsDeleted = %d, want 2", got)
	}
	readsValue(t, n, "a", "x")
}

// TestSweepSpillsListsOnceAndBatchesDeletes: a sweep over many orphans
// lists the spill area and the Commit Set once each and deletes every
// orphan in one call, keeping the spill data of a committed transaction
// the (restarted) manager does not know.
func TestSweepSpillsListsOnceAndBatchesDeletes(t *testing.T) {
	const orphans = 50
	store := &countingStore{DynamoDB: kvengine.NewDynamoDB(kvengine.Options{})}
	ctx := context.Background()
	n, err := core.NewNode(core.Config{NodeID: "n1", Store: store, SpillThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < orphans; i++ {
		txid, _ := n.StartTransaction(ctx)
		if err := n.Put(ctx, txid, fmt.Sprintf("big%d", i), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	kept, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, kept, "kept", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CommitTransaction(ctx, kept); err != nil {
		t.Fatal(err)
	}

	fresh := New(store, StaticMembership{n}) // knows no commit
	lists, batchDeletes, deletes := store.lists.Load(), store.batchDeletes.Load(), store.deletes.Load()
	deleted, err := fresh.SweepSpills(ctx, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != orphans {
		t.Fatalf("deleted %d spill keys, want %d", deleted, orphans)
	}
	lists, batchDeletes, deletes = store.lists.Load()-lists, store.batchDeletes.Load()-batchDeletes, store.deletes.Load()-deletes
	if lists != 2 || batchDeletes != 1 || deletes != 0 {
		t.Fatalf("sweep made %d Lists, %d BatchDeletes, %d Deletes; want 2, 1, 0", lists, batchDeletes, deletes)
	}
	readsValue(t, n, "kept", string(make([]byte, 64)))
}
