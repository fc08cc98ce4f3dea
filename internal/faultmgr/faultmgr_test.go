package faultmgr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/multicast"
	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

func newNode(t *testing.T, store *kvengine.DynamoDB, id string) *core.Node {
	t.Helper()
	n, err := core.NewNode(core.Config{NodeID: id, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func commit(t *testing.T, n *core.Node, kvs map[string]string) idgen.ID {
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

func TestIngestBuildsIndex(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1 := newNode(t, store, "n1")
	m := New(store, StaticMembership{n1})
	commit(t, n1, map[string]string{"k": "v"})
	m.Ingest("n1", n1.Drain())
	if m.KnownCommits() != 1 {
		t.Fatalf("known = %d", m.KnownCommits())
	}
	if m.Metrics().Snapshot().Ingested != 1 {
		t.Fatal("ingest not counted")
	}
	// Duplicate ingest is a no-op.
	m.Ingest("n1", nil)
}

// TestScanRecoversUnbroadcastCommits reproduces the §4.2 liveness scenario:
// a node commits (record durable in storage), acknowledges, and dies before
// broadcasting. The fault manager's scan finds the record and announces it
// to the surviving nodes.
func TestScanRecoversUnbroadcastCommits(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	dead := newNode(t, store, "dead")
	commit(t, dead, map[string]string{"k": "orphan"})
	// "dead" never drains/broadcasts: simulate the crash by dropping it.

	survivor := newNode(t, store, "survivor")
	m := New(store, StaticMembership{survivor})
	if err := m.ScanStorage(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Metrics().Snapshot().Recovered != 1 {
		t.Fatalf("recovered = %d, want 1", m.Metrics().Snapshot().Recovered)
	}
	// The survivor can now read the orphaned commit.
	txid, _ := survivor.StartTransaction(ctx)
	v, err := survivor.Get(ctx, txid, "k")
	if err != nil || string(v) != "orphan" {
		t.Fatalf("survivor read = %q, %v", v, err)
	}
	// A second scan finds nothing new.
	if err := m.ScanStorage(ctx); err != nil {
		t.Fatal(err)
	}
	if m.Metrics().Snapshot().Recovered != 1 {
		t.Fatal("rescan double-counted")
	}
}

// TestScanIsRestartSafe: the fault manager is stateless (§4.2); a fresh
// instance rebuilds its view from a scan plus the nodes' next multicast
// rounds. Records n1 drained to the old manager before the restart sit in
// no queue, so the new manager's scan must fetch them; a record n1 still
// queues is left to n1's next round, which the new manager taps.
func TestScanIsRestartSafe(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	n1 := newNode(t, store, "n1")
	bus := multicast.NewBus()
	bus.Register(n1)
	m1 := New(store, StaticMembership{n1})
	bus.Tap(m1.Ingest)
	commit(t, n1, map[string]string{"a": "1"})
	commit(t, n1, map[string]string{"b": "1"})
	bus.FlushPeer(n1, false)
	if m1.KnownCommits() != 2 {
		t.Fatalf("old manager knows %d commits, want 2", m1.KnownCommits())
	}
	commit(t, n1, map[string]string{"c": "1"}) // still queued at n1

	// "Restart": m1 and its tap are gone; m2 taps a fresh bus.
	m2 := New(store, StaticMembership{n1})
	bus2 := multicast.NewBus()
	bus2.Register(n1)
	bus2.Tap(m2.Ingest)
	if err := m2.ScanStorage(ctx); err != nil {
		t.Fatal(err)
	}
	if got, rec := m2.KnownCommits(), m2.Metrics().Snapshot().Recovered; got != 2 || rec != 2 {
		t.Fatalf("after scan: known %d, recovered %d; want the 2 drained records", got, rec)
	}
	bus2.FlushPeer(n1, false)
	if m2.KnownCommits() != 3 {
		t.Fatalf("after n1's round the restarted manager knows %d commits, want 3", m2.KnownCommits())
	}
	if err := m2.ScanStorage(ctx); err != nil {
		t.Fatal(err)
	}
	if rec := m2.Metrics().Snapshot().Recovered; rec != 2 {
		t.Fatalf("rescan recovered %d in total, want 2", rec)
	}
}

func TestCollectOnceDeletesOnlyWhenAllNodesAgree(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	n1, n2 := newNode(t, store, "n1"), newNode(t, store, "n2")

	bus := multicast.NewBus()
	bus.Register(n1)
	bus.Register(n2)
	m := New(store, StaticMembership{n1, n2})
	bus.Tap(m.Ingest)

	id1 := commit(t, n1, map[string]string{"k": "v1"})
	bus.FlushPeer(n1, false)
	commit(t, n1, map[string]string{"k": "v2"})
	bus.FlushPeer(n1, false)

	// Only n1 has GC'd the superseded transaction so far.
	if removed := n1.SweepLocalMetadata(0); len(removed) != 1 {
		t.Fatalf("n1 swept %d", len(removed))
	}
	removed, err := m.CollectOnce(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatal("global GC deleted before all nodes agreed")
	}
	// The version lives inside its commit record.
	if _, err := store.Get(ctx, records.CommitKey(id1)); err != nil {
		t.Fatalf("data deleted prematurely: %v", err)
	}

	// After n2 also sweeps, the global GC may delete.
	if removed := n2.SweepLocalMetadata(0); len(removed) != 1 {
		t.Fatalf("n2 swept %d", len(removed))
	}
	removed, err = m.CollectOnce(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || !removed[0].Equal(id1) {
		t.Fatalf("global GC removed %v, want [%v]", removed, id1)
	}
	// The commit record, and with it the version, is gone from storage.
	if _, err := store.Get(ctx, records.CommitKey(id1)); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("old commit record still in storage: %v", err)
	}
	// Node bookkeeping cleared.
	if n1.LocallyDeleted([]*records.CommitRecord{records.NewCommitRecord(id1, []string{"k"}, "n1")})[0] {
		t.Fatal("ForgetDeleted not propagated")
	}
	m2 := m.Metrics().Snapshot()
	if m2.TxnsDeleted != 1 || m2.VersionsDeleted != 1 {
		t.Fatalf("metrics = %+v", m2)
	}
}

// TestCollectOnceAfterSenderPrune: a record its own node's round pruned as
// superseded (§4.1) is never delivered to peers, yet every peer votes in
// the symmetric GC. The round tells peers what it pruned, so the record is
// collected once its origin sweeps it, instead of vetoed forever — and,
// being oldest, blocking every later candidate of a capped round.
func TestCollectOnceAfterSenderPrune(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	n1, n2 := newNode(t, store, "n1"), newNode(t, store, "n2")
	bus := multicast.NewBus()
	bus.Register(n1)
	bus.Register(n2)
	m := New(store, StaticMembership{n1, n2})
	bus.Tap(m.Ingest)

	old := commit(t, n1, map[string]string{"k": "v1"})
	commit(t, n1, map[string]string{"k": "v2"})
	bus.FlushPeer(n1, true) // prunes old at the sender
	if got := bus.Metrics().Snapshot().Pruned; got != 1 {
		t.Fatalf("pruned %d records, want 1", got)
	}
	n1.SweepLocalMetadata(0)
	n2.SweepLocalMetadata(0)
	removed, err := m.CollectOnce(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || !removed[0].Equal(old) {
		t.Fatalf("global GC removed %v, want [%v]", removed, old)
	}
	readsValue(t, n2, "k", "v2")
}

func TestCollectOnceOldestFirstAndLimited(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	n1 := newNode(t, store, "n1")
	m := New(store, StaticMembership{n1})
	for i := 0; i < 4; i++ {
		commit(t, n1, map[string]string{"k": string(rune('0' + i))})
	}
	m.Ingest("n1", n1.Drain())
	n1.SweepLocalMetadata(0) // removes the 3 superseded
	removed, err := m.CollectOnce(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("limited collect removed %d", len(removed))
	}
	if !removed[0].Less(removed[1]) {
		t.Fatal("not oldest-first")
	}
	removed2, err := m.CollectOnce(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed2) != 1 {
		t.Fatalf("second collect removed %d, want 1", len(removed2))
	}
}

// TestCollectOnceBatchesDeletes pins the global GC's round-trip count: the
// M superseded versions of one round, and then their M commit records,
// each retire in ceil(M/limit) BatchDelete calls and no point Delete. A
// version inside its inline record goes with the record: M small
// transactions are M keys, in ceil(M/limit) calls.
func TestCollectOnceBatchesDeletes(t *testing.T) {
	const keys, versions = 8, 12
	const superseded = keys * (versions - 1)
	batches := int64((superseded + kvengine.DynamoDBMaxBatch - 1) / kvengine.DynamoDBMaxBatch)
	for _, c := range []struct {
		value     string
		perRecord int64 // storage keys per collected transaction
	}{
		{"v", 1},
		{strings.Repeat("v", 16<<10), 2}, // too large to ride inline
	} {
		store := kvengine.NewDynamoDB(kvengine.Options{})
		ctx := context.Background()
		n1 := newNode(t, store, "n1")
		m := New(store, StaticMembership{n1})
		for v := 0; v < versions; v++ {
			for k := 0; k < keys; k++ {
				commit(t, n1, map[string]string{fmt.Sprintf("k%d", k): c.value})
			}
		}
		m.Ingest("n1", n1.Drain())
		n1.SweepLocalMetadata(0)
		before := store.Metrics().Snapshot()
		removed, err := m.CollectOnce(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(removed) != superseded {
			t.Fatalf("collected %d transactions, want %d", len(removed), superseded)
		}
		d := store.Metrics().Snapshot().Sub(before)
		if d.BatchDeletes != c.perRecord*batches || d.BatchDeleteItems != c.perRecord*superseded || d.Deletes != 0 {
			t.Fatalf("%d keys a transaction: BatchDeletes = %d (want %d), items = %d (want %d), point Deletes = %d (want 0)",
				c.perRecord, d.BatchDeletes, c.perRecord*batches, d.BatchDeleteItems, c.perRecord*superseded, d.Deletes)
		}
		if got := m.Metrics().Snapshot().VersionsDeleted; got != superseded {
			t.Fatalf("VersionsDeleted = %d, want %d", got, superseded)
		}
	}
}

func TestCollectNeverTouchesLiveLatestVersion(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	n1 := newNode(t, store, "n1")
	m := New(store, StaticMembership{n1})
	id := commit(t, n1, map[string]string{"k": "only"})
	m.Ingest("n1", n1.Drain())
	n1.SweepLocalMetadata(0)
	removed, err := m.CollectOnce(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 0 {
		t.Fatal("collected the only (un-superseded) version")
	}
	if _, err := store.Get(ctx, records.CommitKey(id)); err != nil {
		t.Fatalf("live version deleted: %v", err)
	}
}

func TestEndToEndReadAfterGlobalGC(t *testing.T) {
	// After global GC removes old versions, fresh transactions still read
	// the latest value correctly.
	store := kvengine.NewDynamoDB(kvengine.Options{})
	ctx := context.Background()
	n1 := newNode(t, store, "n1")
	m := New(store, StaticMembership{n1})
	for i := 0; i < 10; i++ {
		commit(t, n1, map[string]string{"k": "v" + string(rune('0'+i))})
	}
	m.Ingest("n1", n1.Drain())
	n1.SweepLocalMetadata(0)
	if _, err := m.CollectOnce(ctx, 0); err != nil {
		t.Fatal(err)
	}
	txid, _ := n1.StartTransaction(ctx)
	v, err := n1.Get(ctx, txid, "k")
	if err != nil || string(v) != "v9" {
		t.Fatalf("read after GC = %q, %v", v, err)
	}
	// Storage holds exactly one commit record, which carries the one
	// version of k.
	keys, _ := store.List(ctx, "")
	if len(keys) != 1 || !strings.HasPrefix(keys[0], records.CommitPrefix) {
		t.Fatalf("keys left = %v", keys)
	}
}
