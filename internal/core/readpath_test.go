package core

// readpath_test.go pins the batched read pipeline: batched commit-record
// fetches at bootstrap and MultiGet payload fetches, the spill-path and
// inline-value cache fixes, and the vanished-version retry through Get and
// MultiGet.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage/kvengine"
)

// seedVersions commits `versions` versions of each key through writer.
func seedVersions(t testing.TB, writer *Node, keys []string, versions int) {
	t.Helper()
	ctx := context.Background()
	for v := 0; v < versions; v++ {
		for _, k := range keys {
			txid, err := writer.StartTransaction(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := writer.Put(ctx, txid, k, []byte(fmt.Sprintf("%s-v%d", k, v))); err != nil {
				t.Fatal(err)
			}
			if _, err := writer.CommitTransaction(ctx, txid); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestBootstrapBatchesRecordGets pins the round-trip arithmetic of a cold
// start: a Commit Set of N records costs one List plus
// ceil(N/MaxReadBatch) BatchGet calls — never N point Gets — and the node
// then serves the newest version from local metadata.
func TestBootstrapBatchesRecordGets(t *testing.T) {
	const versions = 130 // > kvengine.DynamoDBMaxReadBatch, so chunking shows
	store := kvengine.NewDynamoDB(kvengine.Options{})
	writer, err := NewNode(Config{NodeID: "w", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	seedVersions(t, writer, []string{"k"}, versions)

	reader, err := NewNode(Config{NodeID: "r", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	before := store.Metrics().Snapshot()
	ctx := context.Background()
	if err := reader.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	d := store.Metrics().Snapshot().Sub(before)
	if d.Lists != 1 {
		t.Fatalf("Lists = %d", d.Lists)
	}
	wantChunks := int64((versions + kvengine.DynamoDBMaxReadBatch - 1) / kvengine.DynamoDBMaxReadBatch)
	if d.BatchGets != wantChunks {
		t.Fatalf("BatchGets = %d, want ceil(%d/%d) = %d", d.BatchGets, versions, kvengine.DynamoDBMaxReadBatch, wantChunks)
	}
	if d.Gets != 0 {
		t.Fatalf("Gets = %d, want 0", d.Gets)
	}
	txid, _ := reader.StartTransaction(ctx)
	if v, err := reader.Get(ctx, txid, "k"); err != nil || string(v) != fmt.Sprintf("k-v%d", versions-1) {
		t.Fatalf("read after bootstrap = %q, %v", v, err)
	}
}

// TestReadFallbackSkipsUncommittedVersions: a bootstrapped node knows only
// what the Commit Set holds. A newer data key whose transaction crashed
// before its commit record (§3.3) stays invisible to a read, which falls
// back to the newest committed version — surfacing it would be a dirty read.
func TestReadFallbackSkipsUncommittedVersions(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	writer, err := NewNode(Config{NodeID: "writer", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, writer, map[string]string{"k": twoPhase("committed")})
	ctx := context.Background()
	dirty := idgen.ID{Timestamp: 1 << 40, UUID: "crashed"}
	if err := store.Put(ctx, string(records.AppendDataKey(nil, "k", dirty)), []byte("dirty")); err != nil {
		t.Fatal(err)
	}

	reader, err := NewNode(Config{NodeID: "reader", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := reader.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	txid, _ := reader.StartTransaction(ctx)
	if v, err := reader.Get(ctx, txid, "k"); err != nil || string(v) != twoPhase("committed") {
		t.Fatalf("Get(k) = %.20q, %v; want the committed version", v, err)
	}
}

// TestReadFallbackMissingKey: a key that no commit record wrote is
// ErrKeyNotFound, answered from local metadata without a storage call.
func TestReadFallbackMissingKey(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	writer, err := NewNode(Config{NodeID: "writer", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, writer, map[string]string{"k": "v"})

	reader, err := NewNode(Config{NodeID: "reader", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := reader.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	txid, _ := reader.StartTransaction(ctx)
	before := store.Metrics().Snapshot()
	if _, err := reader.Get(ctx, txid, "ghost"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("Get of a missing key = %v, want ErrKeyNotFound", err)
	}
	if d := store.Metrics().Snapshot().Sub(before); d.Calls() != 0 {
		t.Fatalf("missing-key read made %d storage calls, want 0", d.Calls())
	}
}

// TestMultiGetSemantics pins MultiGet's per-key equivalence with Get:
// read-your-writes from the buffer, committed values, alignment with the
// key order, duplicate keys, and missing-key failure.
func TestMultiGetSemantics(t *testing.T) {
	n, err := NewNode(Config{NodeID: "mg", Store: kvengine.NewDynamoDB(kvengine.Options{}), EnableDataCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "a", []byte("1"))
	n.Put(ctx, txid, "b", []byte("2"))
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}

	reader, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, reader, "c", []byte("buffered")); err != nil {
		t.Fatal(err)
	}
	vals, err := n.MultiGet(ctx, reader, []string{"b", "c", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"2", "buffered", "1", "2"}
	for i, w := range want {
		if string(vals[i]) != w {
			t.Fatalf("vals[%d] = %q, want %q", i, vals[i], w)
		}
	}
	// Duplicate results must not alias each other.
	vals[0][0] = 'X'
	if string(vals[3]) != "2" {
		t.Fatalf("duplicate-key results alias one slice: %q", vals[3])
	}
	// Reads entered the read set exactly like per-key Gets.
	rs, err := n.ReadSet(reader)
	if err != nil || len(rs) != 2 {
		t.Fatalf("read set = %v, %v", rs, err)
	}
	// A missing key fails the whole call.
	if _, err := n.MultiGet(ctx, reader, []string{"a", "nope"}); err != ErrKeyNotFound {
		t.Fatalf("MultiGet with missing key = %v, want ErrKeyNotFound", err)
	}
	// Empty key set is a no-op.
	if vals, err := n.MultiGet(ctx, reader, nil); err != nil || vals != nil {
		t.Fatalf("MultiGet(nil) = %v, %v", vals, err)
	}
	t.Run("LargerThanBuffers", testLargeMultiGet)
}

// testLargeMultiGet runs one MultiGet of 40 keys, more than MultiGet's
// stack buffers hold, over a 2-shard Redis: duplicates, buffered writes,
// cached and cold payloads, and keys of two 4-key transactions (one
// partly cached, one cold), every transaction's values inline in its
// record. Every value must equal a per-key Get in the same
// transaction, no two results may share memory, and no storage key may be
// fetched twice.
func testLargeMultiGet(t *testing.T) {
	store := kvengine.NewRedis(0, kvengine.Options{})
	n, err := NewNode(Config{NodeID: "mg40", Store: store, EnableDataCache: true})
	if err != nil {
		t.Fatal(err)
	}
	// Other nodes write every key, so n caches only what it reads.
	writer, err := NewNode(Config{NodeID: "mg40w", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	packer, err := NewNode(Config{NodeID: "mg40p", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var keys []string
	for i := 0; i < 24; i += 2 { // two keys per transaction
		commitTxnOn(t, writer, map[string]string{
			fmt.Sprintf("m-%02d", i):   fmt.Sprintf("v%d", i),
			fmt.Sprintf("m-%02d", i+1): fmt.Sprintf("v%d", i+1),
		})
		keys = append(keys, fmt.Sprintf("m-%02d", i), fmt.Sprintf("m-%02d", i+1))
	}
	for _, pack := range []string{"pa", "pb"} {
		kvs := map[string]string{}
		for i := 0; i < 4; i++ {
			k := fmt.Sprintf("%s-%d", pack, i)
			kvs[k] = pack + "-value-" + k
			keys = append(keys, k)
		}
		commitTxnOn(t, packer, kvs)
	}
	n.MergeRemoteCommits(writer.Drain())
	n.MergeRemoteCommits(packer.Drain())
	// Warm the cache with every third plain key and one key of pack pa:
	// each read caches its own value, not its record's other values.
	warm, _ := n.StartTransaction(ctx)
	for _, k := range []string{"m-00", "m-03", "m-06", "m-09", "m-12", "m-15", "pa-0"} {
		if _, err := n.Get(ctx, warm, k); err != nil {
			t.Fatal(err)
		}
	}
	n.AbortTransaction(ctx, warm)

	reader, _ := n.StartTransaction(ctx)
	for _, k := range []string{"m-05", "new-x"} {
		if err := n.Put(ctx, reader, k, []byte("buffered-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	keys = append(keys, "new-x", "m-05", "m-03", "pb-1", "new-x", "m-20", "pa-2", "m-20")
	if len(keys) != 40 {
		t.Fatalf("built %d keys, want 40", len(keys))
	}
	before := store.Metrics().Snapshot()
	vals, err := n.MultiGet(ctx, reader, keys)
	if err != nil {
		t.Fatal(err)
	}
	// Each storage key is fetched once: the records of the 12 two-key
	// transactions, each holding a plain key neither cached nor buffered,
	// and the records of packs pa and pb.
	if d := store.Metrics().Snapshot().Sub(before); d.BatchGetItems != 14 || d.Gets != 0 {
		t.Fatalf("MultiGet fetched %d items in BatchGets and %d point Gets, want 14 and 0", d.BatchGetItems, d.Gets)
	}
	for i, k := range keys {
		want, err := n.Get(ctx, reader, k)
		if err != nil {
			t.Fatalf("Get(%s) = %v", k, err)
		}
		if string(vals[i]) != string(want) {
			t.Fatalf("vals[%d] (%s) = %q, Get = %q", i, k, vals[i], want)
		}
	}
	// No two results share memory: overwrite each, then re-check the rest.
	for i := range vals {
		for j := range vals[i] {
			vals[i][j] = '#'
		}
		for j := i + 1; j < len(vals); j++ {
			if want, _ := n.Get(ctx, reader, keys[j]); string(vals[j]) != string(want) {
				t.Fatalf("writing vals[%d] (%s) changed vals[%d] (%s) to %q", i, keys[i], j, keys[j], vals[j])
			}
		}
	}
}

// TestMultiGetBatchesPayloadFetches pins the storage profile: M cache-miss
// payloads are fetched in batched round trips, not M point Gets.
func TestMultiGetBatchesPayloadFetches(t *testing.T) {
	const nKeys = 10
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n, err := NewNode(Config{NodeID: "mgb", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("mk-%d", i)
		txid, _ := n.StartTransaction(ctx)
		n.Put(ctx, txid, keys[i], []byte{byte(i)})
		if _, err := n.CommitTransaction(ctx, txid); err != nil {
			t.Fatal(err)
		}
	}
	before := store.Metrics().Snapshot()
	txid, _ := n.StartTransaction(ctx)
	vals, err := n.MultiGet(ctx, txid, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if len(vals[i]) != 1 || vals[i][0] != byte(i) {
			t.Fatalf("vals[%d] = %v", i, vals[i])
		}
	}
	d := store.Metrics().Snapshot().Sub(before)
	if d.Gets != 0 || d.BatchGets != 1 || d.BatchGetItems != nKeys {
		t.Fatalf("Gets = %d BatchGets = %d items = %d, want 0/1/%d",
			d.Gets, d.BatchGets, d.BatchGetItems, nKeys)
	}
}

// TestMultiGetVanishedRetry pins the vote/delete race of a symmetric
// cluster through MultiGet (the global GC deletes a payload a node has
// re-installed, read.go): a payload deleted between version selection and
// fetch is forgotten and re-selected for a first read, while a repeat read
// of the vanished version surfaces ErrVersionVanished (the redo signal).
func TestMultiGetVanishedRetry(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n, err := NewNode(Config{NodeID: "vanish", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	commit := func(val string) records.KeyVersion {
		txid, _ := n.StartTransaction(ctx)
		n.Put(ctx, txid, "k", []byte(val))
		id, err := n.CommitTransaction(ctx, txid)
		if err != nil {
			t.Fatal(err)
		}
		return records.KeyVersion{Key: "k", ID: id}
	}
	commit("v1")
	kv2 := commit("v2")

	// First read: v2's payload — its inline record — is gone (the global
	// GC won the race); the retry must forget it and serve v1.
	if err := store.Delete(ctx, records.CommitKey(kv2.ID)); err != nil {
		t.Fatal(err)
	}
	txid, _ := n.StartTransaction(ctx)
	vals, err := n.MultiGet(ctx, txid, []string{"k"})
	if err != nil {
		t.Fatalf("MultiGet after vanish = %v", err)
	}
	if string(vals[0]) != "v1" {
		t.Fatalf("MultiGet after vanish = %q, want v1", vals[0])
	}

	// Re-read of an already-read key whose version then vanishes cannot
	// re-select (repeatable read pins the exact version): redo signal.
	txid2, _ := n.StartTransaction(ctx)
	kv3 := commit("v3")
	if _, err := n.MultiGet(ctx, txid2, []string{"k"}); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(ctx, records.CommitKey(kv3.ID)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.MultiGet(ctx, txid2, []string{"k"}); !errorsIs(err, ErrVersionVanished) {
		t.Fatalf("repeat MultiGet of vanished version = %v, want ErrVersionVanished", err)
	}
}

func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestMultiGetDuplicateKeyVanishedRetry pins duplicate-key plan sharing: a
// key listed twice in one MultiGet whose payload vanishes mid-call is
// retried ONCE for both occurrences — equivalent to two sequential Gets —
// instead of the second occurrence (alreadyRead via the first) failing the
// transaction.
func TestMultiGetDuplicateKeyVanishedRetry(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n, err := NewNode(Config{NodeID: "dupvanish", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	commit := func(val string) idgen.ID {
		txid, _ := n.StartTransaction(ctx)
		n.Put(ctx, txid, "k", []byte(val))
		id, err := n.CommitTransaction(ctx, txid)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	commit("v1")
	id2 := commit("v2")
	if err := store.Delete(ctx, records.CommitKey(id2)); err != nil {
		t.Fatal(err)
	}
	txid, _ := n.StartTransaction(ctx)
	vals, err := n.MultiGet(ctx, txid, []string{"k", "k"})
	if err != nil {
		t.Fatalf("duplicate-key MultiGet after vanish = %v", err)
	}
	if string(vals[0]) != "v1" || string(vals[1]) != "v1" {
		t.Fatalf("vals = %q, %q; want v1, v1", vals[0], vals[1])
	}
}

// TestSpillReadsCached pins the spill-path cache fix: repeated
// read-your-writes of spilled intermediary data hit the data cache instead
// of re-fetching from storage, and a re-spill of the same key refreshes
// the cached copy.
func TestSpillReadsCached(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n, err := NewNode(Config{
		NodeID:          "spillcache",
		Store:           store,
		EnableDataCache: true,
		SpillThreshold:  8, // tiny: every write spills
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, txid, "big", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if n.Metrics().Snapshot().Spills == 0 {
		t.Fatal("write did not spill; test is vacuous")
	}
	before := store.Metrics().Snapshot()
	for i := 0; i < 3; i++ {
		v, err := n.Get(ctx, txid, "big")
		if err != nil || string(v) != "0123456789" {
			t.Fatalf("spilled RYW read = %q, %v", v, err)
		}
	}
	if d := store.Metrics().Snapshot().Sub(before); d.Gets != 0 {
		t.Fatalf("spill reads hit storage %d times; want 0 (write-through cache)", d.Gets)
	}
	// Re-spill of the same key must refresh the cached copy.
	if err := n.Put(ctx, txid, "big", []byte("ABCDEFGHIJ")); err != nil {
		t.Fatal(err)
	}
	v, err := n.Get(ctx, txid, "big")
	if err != nil || string(v) != "ABCDEFGHIJ" {
		t.Fatalf("re-spilled read = %q, %v (stale cache?)", v, err)
	}
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	// Another transaction reads the spilled version through the commit
	// record's spill pointer — same cache entry, still zero fetches.
	before = store.Metrics().Snapshot()
	reader, _ := n.StartTransaction(ctx)
	v, err = n.Get(ctx, reader, "big")
	if err != nil || string(v) != "ABCDEFGHIJ" {
		t.Fatalf("post-commit spilled read = %q, %v", v, err)
	}
	if d := store.Metrics().Snapshot().Sub(before); d.Gets != 0 {
		t.Fatalf("post-commit spill read missed the cache (%d Gets)", d.Gets)
	}
}

// TestPackedExtractCached pins the inline-value cache: the commit caches
// each value of its record under its own entry, repeats are served from
// the entries, and a read whose entry was evicted fetches the record once
// and caches only its own value again.
func TestPackedExtractCached(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n, err := NewNode(Config{NodeID: "packed", Store: store, EnableDataCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "pa", []byte("A"))
	n.Put(ctx, txid, "pb", []byte("B"))
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	before := store.Metrics().Snapshot()
	reader, _ := n.StartTransaction(ctx)
	for i := 0; i < 3; i++ {
		for key, want := range map[string]string{"pa": "A", "pb": "B"} {
			v, err := n.Get(ctx, reader, key)
			if err != nil || string(v) != want {
				t.Fatalf("inline read %s = %q, %v", key, v, err)
			}
		}
	}
	if d := store.Metrics().Snapshot().Sub(before); d.Gets != 0 {
		t.Fatalf("inline reads fetched storage %d times; want 0", d.Gets)
	}
	versions := n.VersionsOf("pa")
	if len(versions) != 1 {
		t.Fatalf("versions of pa = %v", versions)
	}
	n.data.evict([]byte(packEntryKey(records.CommitKey(versions[0]), "pa")))
	before = store.Metrics().Snapshot()
	for i := 0; i < 3; i++ {
		for key, want := range map[string]string{"pa": "A", "pb": "B"} {
			if v, err := n.Get(ctx, reader, key); err != nil || string(v) != want {
				t.Fatalf("inline read %s = %q, %v", key, v, err)
			}
		}
	}
	if d := store.Metrics().Snapshot().Sub(before); d.Gets != 1 {
		t.Fatalf("reads after evicting pa's entry fetched the record %d times; want 1", d.Gets)
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
	reader, err := NewNode(Config{NodeID: "reader", Store: store, Clock: idgen.NewVirtualClock(0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	old := commitTxn(t, reader, map[string]string{"k1": "old1", "k2": "old2"})

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
	commitTxn(t, reader, map[string]string{"k1": "new1", "k2": "new2"})
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
