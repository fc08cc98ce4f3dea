package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

// newTestNode builds a node over a fresh simulated DynamoDB with no latency
// and a virtual clock, so tests are fast and deterministic.
func newTestNode(t *testing.T, mutate ...func(*Config)) (*Node, *kvengine.DynamoDB) {
	t.Helper()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	cfg := Config{
		NodeID: "test-node",
		Store:  store,
		Clock:  idgen.NewVirtualClock(0, 1),
	}
	for _, m := range mutate {
		m(&cfg)
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, store
}

// gcRecs builds the records the global GC would pass for ids, each
// writing writeSet.
func gcRecs(writeSet []string, ids ...idgen.ID) []*records.CommitRecord {
	out := make([]*records.CommitRecord, len(ids))
	for i, id := range ids {
		out[i] = records.NewCommitRecord(id, writeSet, "test-node")
	}
	return out
}

// commitTxn runs a whole transaction writing the given key/value pairs.
func commitTxn(t *testing.T, n *Node, kvs map[string]string) idgen.ID {
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

// twoPhase pads v past what an inline record holds, so a commit writing it
// takes §3.3's two write phases: its data keys, then its record.
func twoPhase(v string) string { return v + strings.Repeat(".", maxInlineRecord) }

func TestNewNodeValidation(t *testing.T) {
	if _, err := NewNode(Config{NodeID: "n"}); err == nil {
		t.Fatal("missing store accepted")
	}
	if _, err := NewNode(Config{Store: kvengine.NewDynamoDB(kvengine.Options{})}); err == nil {
		t.Fatal("missing node ID accepted")
	}
}

func TestBasicCommitAndRead(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	commitTxn(t, n, map[string]string{"k": "v1"})

	txid, _ := n.StartTransaction(ctx)
	v, err := n.Get(ctx, txid, "k")
	if err != nil || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
}

func TestReadMissingKey(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, txid, "never-written"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Get missing = %v, want ErrKeyNotFound", err)
	}
}

func TestReadYourWrites(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	commitTxn(t, n, map[string]string{"k": "old"})

	txid, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, txid, "k", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	v, err := n.Get(ctx, txid, "k")
	if err != nil || string(v) != "mine" {
		t.Fatalf("RYW Get = %q, %v; buffered write not preferred", v, err)
	}
	// Overwrite within the transaction: latest write wins (§3.2).
	if err := n.Put(ctx, txid, "k", []byte("mine2")); err != nil {
		t.Fatal(err)
	}
	v, _ = n.Get(ctx, txid, "k")
	if string(v) != "mine2" {
		t.Fatalf("second RYW Get = %q", v)
	}
}

func TestRepeatableRead(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	commitTxn(t, n, map[string]string{"k": "v1"})

	txid, _ := n.StartTransaction(ctx)
	v1, err := n.Get(ctx, txid, "k")
	if err != nil {
		t.Fatal(err)
	}
	// Another transaction commits a newer version in between.
	commitTxn(t, n, map[string]string{"k": "v2"})
	v2, err := n.Get(ctx, txid, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v1) != string(v2) {
		t.Fatalf("repeatable read violated: %q then %q", v1, v2)
	}
	// A fresh transaction sees the new version.
	txid2, _ := n.StartTransaction(ctx)
	v3, _ := n.Get(ctx, txid2, "k")
	if string(v3) != "v2" {
		t.Fatalf("fresh txn read %q, want v2", v3)
	}
}

func TestDirtyReadsPrevented(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	writer, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, writer, "k", []byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	reader, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, reader, "k"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("read of uncommitted data = %v, want ErrKeyNotFound", err)
	}
	if _, err := n.CommitTransaction(ctx, writer); err != nil {
		t.Fatal(err)
	}
	// Now visible to a new read of the same (still-open) reader.
	v, err := n.Get(ctx, reader, "k")
	if err != nil || string(v) != "uncommitted" {
		t.Fatalf("post-commit read = %q, %v", v, err)
	}
}

// TestFracturedReadForwardRepair reproduces the §3.2 example: with
// T1:{l} then T2:{k,l} committed, a transaction that reads k from T2 must
// not subsequently read T1's l.
func TestFracturedReadForwardRepair(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	commitTxn(t, n, map[string]string{"l": "l1"})
	commitTxn(t, n, map[string]string{"k": "k2", "l": "l2"})

	txid, _ := n.StartTransaction(ctx)
	vk, err := n.Get(ctx, txid, "k")
	if err != nil || string(vk) != "k2" {
		t.Fatalf("read k = %q, %v", vk, err)
	}
	vl, err := n.Get(ctx, txid, "l")
	if err != nil {
		t.Fatal(err)
	}
	if string(vl) != "l2" {
		t.Fatalf("fractured read: k2 with l=%q, want l2", vl)
	}
}

// TestStalenessConstraint reproduces §3.6: a transaction that read the old
// l1 cannot later read k2 (cowritten with the newer l2); with an older k0
// available it reads that, and with no valid version at all it gets
// ErrNoValidVersion.
func TestStalenessConstraint(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	commitTxn(t, n, map[string]string{"k": "k0"}) // T0: old version of k
	commitTxn(t, n, map[string]string{"l": "l1"}) // T1
	tr, _ := n.StartTransaction(ctx)
	vl, err := n.Get(ctx, tr, "l")
	if err != nil || string(vl) != "l1" {
		t.Fatalf("read l = %q, %v", vl, err)
	}
	commitTxn(t, n, map[string]string{"k": "k2", "l": "l2"}) // T2
	// Tr read l1 < l2, so k2 (cowritten with l2) is invalid; Algorithm 1
	// falls back to the older k0 — more stale, but atomic.
	vk, err := n.Get(ctx, tr, "k")
	if err != nil || string(vk) != "k0" {
		t.Fatalf("constrained read of k = %q, %v; want k0", vk, err)
	}
}

func TestNoValidVersionAbortCase(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	commitTxn(t, n, map[string]string{"l": "l1"}) // T1: only l
	tr, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, tr, "l"); err != nil {
		t.Fatal(err)
	}
	commitTxn(t, n, map[string]string{"k": "k2", "l": "l2"}) // T2
	// The only version of k is k2, invalid for Tr: equivalent to reading
	// from a snapshot at T1's time, where k did not exist (§3.6).
	if _, err := n.Get(ctx, tr, "k"); !errors.Is(err, ErrNoValidVersion) {
		t.Fatalf("read k = %v, want ErrNoValidVersion", err)
	}
}

func TestAtomicReadsetLowerBound(t *testing.T) {
	// Reading k from T2 {k,l} then l must never return T1's l even when
	// many unrelated versions of l exist in between.
	n, _ := newTestNode(t)
	ctx := context.Background()
	commitTxn(t, n, map[string]string{"l": "l1"})
	commitTxn(t, n, map[string]string{"k": "k2", "l": "l2"})
	commitTxn(t, n, map[string]string{"l": "l3"}) // newer, not cowritten with k

	txid, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, txid, "k"); err != nil {
		t.Fatal(err)
	}
	vl, err := n.Get(ctx, txid, "l")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(vl); got != "l2" && got != "l3" {
		t.Fatalf("read l = %q, want l2 or l3 (never l1)", got)
	}
}

func TestAbortDiscardsUpdates(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, txid, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := n.AbortTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	// Nothing visible, nothing persisted.
	other, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, other, "k"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("aborted write visible: %v", err)
	}
	// The aborted transaction is gone.
	if err := n.Put(ctx, txid, "k", nil); !errors.Is(err, ErrTxnNotFound) {
		t.Fatalf("Put after abort = %v", err)
	}
	if _, err := n.CommitTransaction(ctx, txid); !errors.Is(err, ErrTxnNotFound) {
		t.Fatalf("Commit after abort = %v", err)
	}
}

func TestCommitIdempotentUnderRetry(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, txid, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	id1, err := n.CommitTransaction(ctx, txid)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := n.CommitTransaction(ctx, txid) // client retry after lost ack
	if err != nil {
		t.Fatalf("retried commit = %v", err)
	}
	if !id1.Equal(id2) {
		t.Fatalf("retry minted a new ID: %v vs %v", id1, id2)
	}
	m := n.Metrics().Snapshot()
	if m.Committed != 1 {
		t.Fatalf("committed count = %d, want 1", m.Committed)
	}
}

func TestResumeTransaction(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	if err := n.ResumeTransaction(ctx, txid); err != nil {
		t.Fatalf("resume live txn = %v", err)
	}
	n.CommitTransaction(ctx, txid)
	if err := n.ResumeTransaction(ctx, txid); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("resume committed txn = %v", err)
	}
	if err := n.ResumeTransaction(ctx, "unknown"); !errors.Is(err, ErrTxnNotFound) {
		t.Fatalf("resume unknown txn = %v", err)
	}
}

func TestWriteOrderingProtocolOrder(t *testing.T) {
	// A durable commit record implies durable data: verify by inspecting
	// storage after commit — every write-set key resolves, inside the
	// record for a small write set and at its data key for a large one.
	n, store := newTestNode(t)
	ctx := context.Background()
	for _, kvs := range []map[string]string{
		{"a": "1", "b": "2"},
		{"a": twoPhase("1"), "b": twoPhase("2")},
	} {
		id := commitTxn(t, n, kvs)
		recPayload, err := store.Get(ctx, records.CommitKey(id))
		if err != nil {
			t.Fatalf("commit record missing: %v", err)
		}
		rec, err := records.UnmarshalCommitRecord(recPayload)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.WriteSet) != 2 || rec.Inline != (len(kvs["a"]) == 1) {
			t.Fatalf("write set = %v, inline = %v", rec.WriteSet, rec.Inline)
		}
		for _, k := range rec.WriteSet {
			var v []byte
			if rec.Inline {
				v, err = records.InlineValue(recPayload, k)
			} else {
				v, err = store.Get(ctx, string(records.AppendDataKey(nil, k, id)))
			}
			if err != nil || string(v) != kvs[k] {
				t.Fatalf("data for %s after commit: %d bytes, %v", k, len(v), err)
			}
		}
	}
}

func TestCommitFailureLeavesNothingVisible(t *testing.T) {
	n, store := newTestNode(t)
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, txid, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	store.SetAvailable(false)
	if _, err := n.CommitTransaction(ctx, txid); err == nil {
		t.Fatal("commit succeeded against downed storage")
	}
	store.SetAvailable(true)
	// Not visible to other transactions.
	other, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, other, "k"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("failed commit visible: %v", err)
	}
	// The transaction is still live and can be retried to completion.
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatalf("retry after storage recovery = %v", err)
	}
	v, err := n.Get(ctx, other, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("read after successful retry = %q, %v", v, err)
	}
}

func TestReadOnlyTransactionCommitsWithoutStorageWrites(t *testing.T) {
	n, store := newTestNode(t)
	ctx := context.Background()
	commitTxn(t, n, map[string]string{"k": "v"})
	before := store.Metrics().Snapshot()
	txid, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, txid, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	after := store.Metrics().Snapshot()
	if after.Puts != before.Puts || after.Batches != before.Batches {
		t.Fatal("read-only commit wrote to storage")
	}
}

func TestBatchingUsedOnDynamo(t *testing.T) {
	n, store := newTestNode(t)
	kvs := map[string]string{}
	for i := 0; i < 10; i++ {
		kvs[fmt.Sprintf("k%d", i)] = twoPhase("v")
	}
	commitTxn(t, n, kvs)
	m := store.Metrics().Snapshot()
	if m.Batches != 1 {
		t.Fatalf("batches = %d, want 1 (10 writes fit one BatchWriteItem)", m.Batches)
	}
	if m.Puts != 1 { // exactly the commit record
		t.Fatalf("puts = %d, want 1 (commit record only)", m.Puts)
	}
}

func TestBatchChunkingOverEngineLimit(t *testing.T) {
	n, store := newTestNode(t)
	kvs := map[string]string{}
	for i := 0; i < 60; i++ { // 60 > 2*25: needs 3 chunks
		kvs[fmt.Sprintf("k%02d", i)] = twoPhase("v")
	}
	commitTxn(t, n, kvs)
	m := store.Metrics().Snapshot()
	if m.Batches != 3 {
		t.Fatalf("batches = %d, want 3", m.Batches)
	}
	if m.BatchItems != 60 {
		t.Fatalf("batch items = %d, want 60", m.BatchItems)
	}
}

// unboundedBatchStore reports the WAL engine's capabilities — batch writes
// with MaxBatchSize 0 — and records the size of every BatchPut.
type unboundedBatchStore struct {
	storage.Store
	sizes *[]int
}

func (s unboundedBatchStore) Capabilities() storage.Capabilities {
	return storage.Capabilities{BatchWrites: true}
}

func (s unboundedBatchStore) BatchPut(ctx context.Context, items map[string][]byte) error {
	*s.sizes = append(*s.sizes, len(items))
	for k, v := range items {
		if err := s.Store.Put(ctx, k, v); err != nil {
			return err
		}
	}
	return nil
}

// TestUnboundedBatchLimit pins the one meaning of MaxBatchSize 0: the
// whole write set goes out as one BatchPut (the group path used to cut it
// at 128).
func TestUnboundedBatchLimit(t *testing.T) {
	var sizes []int
	n, err := NewNode(Config{
		NodeID: "n",
		Store:  unboundedBatchStore{kvengine.NewDynamoDB(kvengine.Options{}), &sizes},
	})
	if err != nil {
		t.Fatal(err)
	}
	kvs := map[string]string{}
	for i := 0; i < 300; i++ {
		kvs[fmt.Sprintf("k%03d", i)] = twoPhase("v")
	}
	commitTxn(t, n, kvs)
	if len(sizes) != 1 || sizes[0] != 300 {
		t.Fatalf("BatchPut sizes = %v, want one call of 300", sizes)
	}
}

func TestSequentialWritesOnRedis(t *testing.T) {
	store := kvengine.NewRedis(0, kvengine.Options{})
	n, err := NewNode(Config{NodeID: "n", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	for i := 0; i < 5; i++ {
		n.Put(ctx, txid, fmt.Sprintf("k%d", i), []byte(twoPhase("v")))
	}
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	m := store.Metrics().Snapshot()
	if m.Puts != 6 { // 5 data keys + 1 commit record, no batching (§6.1.2)
		t.Fatalf("puts = %d, want 6", m.Puts)
	}
	if m.Batches != 0 {
		t.Fatalf("batches = %d, want 0", m.Batches)
	}
}

func TestWorksOverS3(t *testing.T) {
	store := kvengine.NewS3(kvengine.Options{})
	n, err := NewNode(Config{NodeID: "n", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "k", []byte("v"))
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	txid2, _ := n.StartTransaction(ctx)
	v, err := n.Get(ctx, txid2, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get over s3 = %q, %v", v, err)
	}
}

func TestBootstrapWarmsMetadataCache(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	clock := idgen.NewVirtualClock(0, 1)
	n1, _ := NewNode(Config{NodeID: "n1", Store: store, Clock: clock})
	ctx := context.Background()
	txid, _ := n1.StartTransaction(ctx)
	n1.Put(ctx, txid, "k", []byte("v"))
	if _, err := n1.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}

	// A second node over the same storage knows nothing until Bootstrap.
	n2, _ := NewNode(Config{NodeID: "n2", Store: store, Clock: clock})
	t2, _ := n2.StartTransaction(ctx)
	if _, err := n2.Get(ctx, t2, "k"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("pre-bootstrap read = %v", err)
	}
	if err := n2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	t3, _ := n2.StartTransaction(ctx)
	v, err := n2.Get(ctx, t3, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("post-bootstrap read = %q, %v", v, err)
	}
	if n2.MetadataSize() != 1 {
		t.Fatalf("metadata size = %d", n2.MetadataSize())
	}
}

func TestBootstrapRecoveryDeclaresCommittedTxnsSuccessful(t *testing.T) {
	// §3.3.1: a node fails after persisting the commit record but before
	// acking; the restarted node finds the record and the transaction is
	// durable.
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1, _ := NewNode(Config{NodeID: "n1", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	ctx := context.Background()
	id := func() idgen.ID {
		txid, _ := n1.StartTransaction(ctx)
		n1.Put(ctx, txid, "k", []byte("v"))
		id, err := n1.CommitTransaction(ctx, txid)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}()
	// "Restart": a brand-new node instance over the same storage.
	n2, _ := NewNode(Config{NodeID: "n1", Store: store, Clock: idgen.NewVirtualClock(1<<20, 1)})
	if err := n2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	// The committed transaction's UUID is recognized: a client retry of
	// CommitTransaction reports success with the original ID.
	got, err := n2.CommitTransaction(ctx, id.UUID)
	if err != nil || !got.Equal(id) {
		t.Fatalf("post-recovery commit retry = %v, %v; want %v", got, err, id)
	}
}

func TestMergeRemoteCommits(t *testing.T) {
	n, store := newTestNode(t)
	ctx := context.Background()
	// Simulate a peer committing directly against shared storage.
	peerID := idgen.ID{Timestamp: 100, UUID: "peer-1-xx"}
	if err := store.Put(ctx, string(records.AppendDataKey(nil, "pk", peerID)), []byte("pv")); err != nil {
		t.Fatal(err)
	}
	rec := records.NewCommitRecord(peerID, []string{"pk"}, "peer")
	n.MergeRemoteCommits([]*records.CommitRecord{rec, nil})

	txid, _ := n.StartTransaction(ctx)
	v, err := n.Get(ctx, txid, "pk")
	if err != nil || string(v) != "pv" {
		t.Fatalf("read of merged commit = %q, %v", v, err)
	}
	// Merging the same record twice is a no-op.
	n.MergeRemoteCommits([]*records.CommitRecord{rec})
	if got := len(n.VersionsOf("pk")); got != 1 {
		t.Fatalf("versions after duplicate merge = %d", got)
	}
}

func TestMergeSkipsSuperseded(t *testing.T) {
	n, _ := newTestNode(t)
	commitTxn(t, n, map[string]string{"k": "new"}) // local, newer
	old := records.NewCommitRecord(idgen.ID{Timestamp: 0, UUID: "0"}, []string{"k"}, "peer")
	n.MergeRemoteCommits([]*records.CommitRecord{old})
	if len(n.VersionsOf("k")) != 1 {
		t.Fatal("superseded remote commit was merged")
	}
	if n.Metrics().Snapshot().PrunedMerges != 1 {
		t.Fatal("pruned merge not counted")
	}
}

func TestIsSupersededAlgorithm2(t *testing.T) {
	n, _ := newTestNode(t)
	id1 := commitTxn(t, n, map[string]string{"a": "1", "b": "1"})
	recs := n.KnownCommits()
	if len(recs) != 1 {
		t.Fatal("setup")
	}
	rec1 := recs[0]
	if n.IsSuperseded(rec1) {
		t.Fatal("latest txn reported superseded")
	}
	commitTxn(t, n, map[string]string{"a": "2"})
	if n.IsSuperseded(rec1) {
		t.Fatal("txn with one un-superseded key reported superseded")
	}
	commitTxn(t, n, map[string]string{"b": "2"})
	if !n.IsSuperseded(rec1) {
		t.Fatal("fully superseded txn not detected")
	}
	_ = id1
}

func TestDrainReturnsAndClears(t *testing.T) {
	n, _ := newTestNode(t)
	commitTxn(t, n, map[string]string{"a": "1"})
	commitTxn(t, n, map[string]string{"b": "1"})
	got := n.Drain()
	if len(got) != 2 {
		t.Fatalf("drain = %d records", len(got))
	}
	if len(n.Drain()) != 0 {
		t.Fatal("second drain not empty")
	}
}

func TestSweepLocalMetadata(t *testing.T) {
	n, _ := newTestNode(t)
	commitTxn(t, n, map[string]string{"k": "1"})
	commitTxn(t, n, map[string]string{"k": "2"})
	commitTxn(t, n, map[string]string{"k": "3"})
	removed := n.SweepLocalMetadata(0)
	if len(removed) != 2 {
		t.Fatalf("swept %d, want 2 (two superseded versions)", len(removed))
	}
	if n.MetadataSize() != 1 {
		t.Fatalf("metadata size = %d, want 1", n.MetadataSize())
	}
	// Oldest-first ordering (§5.2.1 mitigation).
	if !removed[0].Less(removed[1]) {
		t.Fatal("sweep not oldest-first")
	}
	// The survivor is still readable.
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	v, err := n.Get(ctx, txid, "k")
	if err != nil || string(v) != "3" {
		t.Fatalf("read after sweep = %q, %v", v, err)
	}
	// Locally-deleted list answers the global GC.
	recs := gcRecs([]string{"k"}, removed...)
	for i, deleted := range n.LocallyDeleted(recs) {
		if !deleted {
			t.Fatalf("id %v not in locally-deleted list", removed[i])
		}
	}
	n.ForgetDeleted(recs)
	for _, deleted := range n.LocallyDeleted(recs) {
		if deleted {
			t.Fatal("ForgetDeleted did not clear")
		}
	}
}

func TestSweepRespectsReaderPins(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	commitTxn(t, n, map[string]string{"k": "1"})
	reader, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, reader, "k"); err != nil {
		t.Fatal(err)
	}
	commitTxn(t, n, map[string]string{"k": "2"}) // supersedes v1
	if removed := n.SweepLocalMetadata(0); len(removed) != 0 {
		t.Fatalf("swept %d despite active reader pin", len(removed))
	}
	// Repeatable read still works for the pinned reader.
	v, err := n.Get(ctx, reader, "k")
	if err != nil || string(v) != "1" {
		t.Fatalf("pinned read = %q, %v", v, err)
	}
	// After the reader finishes, the sweep proceeds.
	if _, err := n.CommitTransaction(ctx, reader); err != nil {
		t.Fatal(err)
	}
	if removed := n.SweepLocalMetadata(0); len(removed) != 1 {
		t.Fatalf("swept %d after pin release, want 1", len(removed))
	}
}

func TestSweepLimit(t *testing.T) {
	n, _ := newTestNode(t)
	for i := 0; i < 5; i++ {
		commitTxn(t, n, map[string]string{"k": fmt.Sprintf("%d", i)})
	}
	if removed := n.SweepLocalMetadata(2); len(removed) != 2 {
		t.Fatalf("limited sweep removed %d, want 2", len(removed))
	}
}

func TestSweptMetadataNotResurrectedByMerge(t *testing.T) {
	n, _ := newTestNode(t)
	commitTxn(t, n, map[string]string{"k": "1"})
	recs := n.KnownCommits()
	commitTxn(t, n, map[string]string{"k": "2"})
	removed := n.SweepLocalMetadata(0)
	if len(removed) != 1 {
		t.Fatal("setup")
	}
	// A stale multicast arrives for the swept transaction.
	n.MergeRemoteCommits(recs[:1])
	if len(n.VersionsOf("k")) != 1 {
		t.Fatal("swept transaction resurrected by merge")
	}
}

func TestDataCacheServesReads(t *testing.T) {
	n, store := newTestNode(t, func(c *Config) {
		c.EnableDataCache = true
		c.DataCacheEntries = 128
	})
	ctx := context.Background()
	commitTxn(t, n, map[string]string{"k": "v"})
	gets0 := store.Metrics().Gets.Load()
	for i := 0; i < 5; i++ {
		txid, _ := n.StartTransaction(ctx)
		if v, err := n.Get(ctx, txid, "k"); err != nil || string(v) != "v" {
			t.Fatalf("Get = %q, %v", v, err)
		}
		n.CommitTransaction(ctx, txid)
	}
	if got := store.Metrics().Gets.Load(); got != gets0 {
		t.Fatalf("storage gets = %d, want %d (all reads cached: commit warms cache)", got, gets0)
	}
	if n.Metrics().Snapshot().CacheHits != 5 {
		t.Fatalf("cache hits = %d", n.Metrics().Snapshot().CacheHits)
	}
}

func TestUncachedNodeAlwaysHitsStorage(t *testing.T) {
	n, store := newTestNode(t)
	ctx := context.Background()
	commitTxn(t, n, map[string]string{"k": "v"})
	for i := 0; i < 3; i++ {
		txid, _ := n.StartTransaction(ctx)
		n.Get(ctx, txid, "k")
		n.CommitTransaction(ctx, txid)
	}
	if got := store.Metrics().Gets.Load(); got != 3 {
		t.Fatalf("storage gets = %d, want 3", got)
	}
}

func TestSpillAndCommit(t *testing.T) {
	n, store := newTestNode(t, func(c *Config) { c.SpillThreshold = 10 })
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	big := make([]byte, 32)
	if err := n.Put(ctx, txid, "big", big); err != nil {
		t.Fatal(err)
	}
	if n.Metrics().Snapshot().Spills != 1 {
		t.Fatal("write over threshold did not spill")
	}
	// Spilled data is invisible to other transactions...
	other, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, other, "big"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("spilled data visible: %v", err)
	}
	// ...but read-your-writes still sees it.
	v, err := n.Get(ctx, txid, "big")
	if err != nil || len(v) != 32 {
		t.Fatalf("RYW of spilled data = %d bytes, %v", len(v), err)
	}
	id, err := n.CommitTransaction(ctx, txid)
	if err != nil {
		t.Fatal(err)
	}
	// After commit the spilled version is visible through the record.
	reader, _ := n.StartTransaction(ctx)
	v, err = n.Get(ctx, reader, "big")
	if err != nil || len(v) != 32 {
		t.Fatalf("read of spilled version = %d bytes, %v", len(v), err)
	}
	// The commit record records the spill location.
	payload, _ := store.Get(ctx, records.CommitKey(id))
	rec, _ := records.UnmarshalCommitRecord(payload)
	if rec.SpillDir == "" || len(rec.Spilled) != 1 || rec.Spilled[0] != "big" {
		t.Fatalf("commit record spill info = %+v", rec)
	}
}

func TestSpillThenRewriteUsesBufferValue(t *testing.T) {
	n, _ := newTestNode(t, func(c *Config) { c.SpillThreshold = 10 })
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "k", make([]byte, 32)) // spills
	n.Put(ctx, txid, "k", []byte("final"))  // re-buffered
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	reader, _ := n.StartTransaction(ctx)
	v, err := n.Get(ctx, reader, "k")
	if err != nil || string(v) != "final" {
		t.Fatalf("read = %q, %v; want the re-buffered value", v, err)
	}
}

func TestAbortCleansSpill(t *testing.T) {
	n, store := newTestNode(t, func(c *Config) { c.SpillThreshold = 10 })
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "k", make([]byte, 32))
	if err := n.AbortTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	spills, err := store.List(ctx, records.SpillPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(spills) != 0 {
		t.Fatalf("spill keys left after abort: %v", spills)
	}
}

func TestMaxConcurrentBlocksAndReleases(t *testing.T) {
	n, _ := newTestNode(t, func(c *Config) { c.MaxConcurrent = 1 })
	ctx := context.Background()
	txid1, err := n.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A second start must block until the first finishes.
	startedC := make(chan string)
	go func() {
		txid2, err := n.StartTransaction(context.Background())
		if err != nil {
			t.Error(err)
		}
		startedC <- txid2
	}()
	select {
	case <-startedC:
		t.Fatal("second transaction started over the concurrency limit")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := n.CommitTransaction(ctx, txid1); err != nil {
		t.Fatal(err)
	}
	select {
	case txid2 := <-startedC:
		n.AbortTransaction(ctx, txid2)
	case <-time.After(time.Second):
		t.Fatal("slot not released by commit")
	}
	// Cancellation while blocked.
	txid3, _ := n.StartTransaction(ctx)
	cctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := n.StartTransaction(cctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked start with cancelled ctx = %v", err)
	}
	n.AbortTransaction(ctx, txid3)
}

func TestOpsOnUnknownTxn(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	if _, err := n.Get(ctx, "nope", "k"); !errors.Is(err, ErrTxnNotFound) {
		t.Fatalf("Get = %v", err)
	}
	if err := n.Put(ctx, "nope", "k", nil); !errors.Is(err, ErrTxnNotFound) {
		t.Fatalf("Put = %v", err)
	}
	if err := n.AbortTransaction(ctx, "nope"); !errors.Is(err, ErrTxnNotFound) {
		t.Fatalf("Abort = %v", err)
	}
	if _, err := n.CommitTransaction(ctx, "nope"); !errors.Is(err, ErrTxnNotFound) {
		t.Fatalf("Commit = %v", err)
	}
}

func TestOpsOnFinishedTxn(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "k", []byte("v"))
	n.CommitTransaction(ctx, txid)
	if err := n.Put(ctx, txid, "k", nil); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("Put after commit = %v", err)
	}
	if _, err := n.Get(ctx, txid, "k"); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("Get after commit = %v", err)
	}
	if err := n.AbortTransaction(ctx, txid); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("Abort after commit = %v", err)
	}
}

func TestReadSetTracking(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	idA := commitTxn(t, n, map[string]string{"a": "1"})
	txid, _ := n.StartTransaction(ctx)
	n.Get(ctx, txid, "a")
	rs, err := n.ReadSet(txid)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := rs["a"]; !ok || !got.Equal(idA) {
		t.Fatalf("read set = %v", rs)
	}
}

func TestValueIsolationFromCallerMutation(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	buf := []byte("orig")
	n.Put(ctx, txid, "k", buf)
	buf[0] = 'X'
	v, _ := n.Get(ctx, txid, "k")
	if string(v) != "orig" {
		t.Fatalf("buffered value aliased caller slice: %q", v)
	}
}

func TestActiveTransactionsCount(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	a, _ := n.StartTransaction(ctx)
	b, _ := n.StartTransaction(ctx)
	if got := n.ActiveTransactions(); got != 2 {
		t.Fatalf("active = %d", got)
	}
	n.AbortTransaction(ctx, a)
	n.CommitTransaction(ctx, b)
	if got := n.ActiveTransactions(); got != 0 {
		t.Fatalf("active after finish = %d", got)
	}
}
