//go:build !race

package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage/kvengine"
)

// mallocsDuring counts the heap allocations f makes, process-wide: callers
// keep every other goroutine idle while it runs.
func mallocsDuring(f func()) uint64 {
	objects, _ := allocatedDuring(f)
	return objects
}

// allocatedDuring counts the heap objects and bytes f allocates,
// process-wide.
func allocatedDuring(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestCommitAllocBudget pins the write path: a two-key commit through the
// write routine, uncontended, on the zero-latency store, and the whole
// Start + 2 Put + Commit transaction around it. The count covers the
// storage engine's own copies; what is left is bytes someone keeps: the
// transaction and its ID, the buffered values, the record with its write
// set inside it, the one string its storage keys are sliced from, and the
// engine's one copy: the inline record, which carries both values. The
// commit's storage writes live in the flush's pooled scratch. A copy of the write buffer, a write set of its own, a
// write-buffer map, a string per key, a record encoding of its own, a
// flush map, a per-commit channel or a drainer goroutine coming back shows
// up here as a failure.
func TestCommitAllocBudget(t *testing.T) {
	const commitBudget, txnBudget = 4, 8
	n, err := NewNode(Config{NodeID: "budget", Store: kvengine.NewDynamoDB(kvengine.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v1, v2 := make([]byte, 1024), make([]byte, 1024)
	var commit uint64
	txn := func() {
		txid, err := n.StartTransaction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		n.Put(ctx, txid, "budget-key-a", v1)
		n.Put(ctx, txid, "budget-key-b", v2)
		commit += mallocsDuring(func() {
			if _, err := n.CommitTransaction(ctx, txid); err != nil {
				t.Fatal(err)
			}
		})
	}
	for i := 0; i < 64; i++ {
		txn() // fill the scratch pool and grow the maps
	}
	const runs = 1024
	commit = 0
	whole := mallocsDuring(func() {
		for i := 0; i < runs; i++ {
			txn()
		}
	})
	perCommit, perTxn := float64(commit)/runs, float64(whole)/runs
	t.Logf("allocs: %.2f per commit, %.2f per Start+2Put+Commit", perCommit, perTxn)
	// Rounded: the runtime counts a span's objects when it hands the span
	// out and corrects the count when it takes the span back, so a window
	// of a thousand transactions reads a few tenths off either way.
	if math.Round(perCommit) > commitBudget {
		t.Errorf("commit costs %.2f allocs, budget %d", perCommit, commitBudget)
	}
	if math.Round(perTxn) > txnBudget {
		t.Errorf("whole transaction costs %.2f allocs, budget %d", perTxn, txnBudget)
	}
}

// TestVersionListAllocBudget: a hot key holds a few live versions while
// every commit adds the newest and the sweep retires the oldest. Its
// version list reuses the slots the sweep frees, so once warm a cycle
// allocates nothing — a list that drops its dead prefix into a new array
// whenever it fills shows up here as a failure.
func TestVersionListAllocBudget(t *testing.T) {
	const live = 4
	vi := make(versionIndex)
	ts := int64(0)
	cycle := func() {
		ts++
		vi.insert("hot", idgen.ID{Timestamp: ts, UUID: "u"})
		vi.remove("hot", idgen.ID{Timestamp: ts - live, UUID: "u"})
	}
	for range 64 {
		cycle() // fill the list and let its array reach its size
	}
	// AllocsPerRun rounds down, so each run is a hundred cycles: one
	// allocation every few cycles still reads as tens per run.
	got := testing.AllocsPerRun(100, func() {
		for range 100 {
			cycle()
		}
	})
	t.Logf("100 x (insert + retire): %v allocs", got)
	if got != 0 {
		t.Errorf("100 cycles of insert and retire allocate %v, want 0", got)
	}
	if n := len(vi.atLeast("hot", idgen.Null)); n != live {
		t.Fatalf("hot key holds %d versions, want %d", n, live)
	}
}

// TestLargeWriteBufferAllocBudget: a Put finds its key's place in the
// sorted write buffer by binary search and the buffer grows by doubling,
// so 2 000 Puts in random order allocate their value copies plus about
// twenty growths — never a copy of the buffer per Put. At 20 000 Puts they
// allocate no more per Put than at 2 000.
func TestLargeWriteBufferAllocBudget(t *testing.T) {
	perPut := func(keys int) (objects, bytes float64) {
		n, _ := newTestNode(t)
		var txid string
		o, b := allocatedDuring(func() { txid, _ = largeTxnPuts(t, n, keys) })
		n.AbortTransaction(context.Background(), txid)
		return float64(o) / float64(keys), float64(b) / float64(keys)
	}
	smallO, smallB := perPut(2000)
	largeO, largeB := perPut(20000)
	t.Logf("per Put: %.2f objects / %.0f bytes at 2 000 keys, %.2f / %.0f at 20 000", smallO, smallB, largeO, largeB)
	// Each key costs its name, its map entry, its value copy; the buffer
	// costs about 2 x 40 bytes a key, however many keys.
	if smallO > 4 || largeO > 4 {
		t.Errorf("a Put allocates %.2f objects at 2 000 keys, %.2f at 20 000; want at most 4", smallO, largeO)
	}
	if largeB > 1.5*smallB {
		t.Errorf("a Put allocates %.0f bytes at 20 000 keys but %.0f at 2 000", largeB, smallB)
	}
}

// TestReadAllocBudget: a Get served from the data cache allocates the copy
// it returns and nothing else — no storage-key string, no plan, no copy of
// the key's version list — and a transaction that reads one key allocates,
// beyond that copy, only itself and its ID: its read set starts inside it.
// Cold, on a node with no cache, the storage key comes from the version's
// record, so Start+Get+Abort allocates the transaction, its ID and the
// engine's copy of the inline record, whose value the result is.
func TestReadAllocBudget(t *testing.T) {
	t.Run("cold", func(t *testing.T) {
		n, err := NewNode(Config{NodeID: "cold", Store: kvengine.NewDynamoDB(kvengine.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		txid, _ := n.StartTransaction(ctx)
		n.Put(ctx, txid, "cold-key", make([]byte, historyValueLen))
		if _, err := n.CommitTransaction(ctx, txid); err != nil {
			t.Fatal(err)
		}
		cold := testing.AllocsPerRun(200, func() {
			txid, _ := n.StartTransaction(ctx)
			if v, err := n.Get(ctx, txid, "cold-key"); err != nil || len(v) != historyValueLen {
				t.Fatalf("Get = %d bytes, %v", len(v), err)
			}
			n.AbortTransaction(ctx, txid)
		})
		t.Logf("cold Start+Get+Abort: %v allocs", cold)
		if cold > 3 {
			t.Errorf("cold Start+Get+Abort costs %v allocs, want at most 3 (transaction, ID, engine copy)", cold)
		}
	})

	n := historyNode(t, 16)
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, txid, "hot"); err != nil {
		t.Fatal(err)
	}
	reread := testing.AllocsPerRun(200, func() {
		if v, err := n.Get(ctx, txid, "hot"); err != nil || len(v) != historyValueLen {
			t.Fatalf("Get = %d bytes, %v", len(v), err)
		}
	})
	n.AbortTransaction(ctx, txid)
	fresh := testing.AllocsPerRun(200, func() {
		txid, _ := n.StartTransaction(ctx)
		if _, err := n.Get(ctx, txid, "hot"); err != nil {
			t.Fatal(err)
		}
		n.AbortTransaction(ctx, txid)
	})
	t.Logf("cached Get: %v allocs; Start+Get+Abort: %v", reread, fresh)
	if reread != 1 {
		t.Errorf("cached Get costs %v allocs, want 1 (the returned copy)", reread)
	}
	if fresh > 3 {
		t.Errorf("Start+Get+Abort costs %v allocs, want at most 3 (transaction, ID, copy)", fresh)
	}
}

// TestMultiGetAllocBudget pins a batched read to a fixed number of
// allocations beyond the values it hands back. Served from the data cache,
// Start + a 4-key MultiGet + Abort allocates the transaction (its read set
// inside it), its ID, the result slice and the 4 copies. Cold, on a zero-latency
// Redis with 2 shards and no cache, the one BatchGet of the keys' one
// inline record adds the engine's result map and its one copy of the
// record, whose values the 4 results are: its key is the record's own and
// its key slice is pooled, and there is no plan, index list, map, string or
// copy per key.
func TestMultiGetAllocBudget(t *testing.T) {
	keys := []string{"mg-a", "mg-b", "mg-c", "mg-d"}
	for _, tc := range []struct {
		name   string
		cache  bool
		budget float64
	}{
		{"cached", true, 7},
		{"cold", false, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := kvengine.NewRedis(0, kvengine.Options{})
			if store.ShardFor(keys[0]) == store.ShardFor(keys[1]) {
				t.Fatalf("keys %q and %q share a shard", keys[0], keys[1])
			}
			n, err := NewNode(Config{NodeID: "mgbudget", Store: store, EnableDataCache: tc.cache})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			txid, _ := n.StartTransaction(ctx)
			for _, k := range keys {
				n.Put(ctx, txid, k, make([]byte, historyValueLen))
			}
			if _, err := n.CommitTransaction(ctx, txid); err != nil {
				t.Fatal(err)
			}
			op := func() {
				txid, _ := n.StartTransaction(ctx)
				vals, err := n.MultiGet(ctx, txid, keys)
				if err != nil || len(vals) != len(keys) || len(vals[3]) != historyValueLen {
					t.Fatalf("MultiGet = %d values, %v", len(vals), err)
				}
				n.AbortTransaction(ctx, txid)
			}
			got := testing.AllocsPerRun(200, op)
			t.Logf("Start + 4-key MultiGet + Abort: %v allocs", got)
			if got > tc.budget {
				t.Errorf("Start + 4-key MultiGet + Abort costs %v allocs, budget %v", got, tc.budget)
			}
		})
	}
}

// TestReadCostIndependentOfHistory: Algorithm 1 walks a key's version list
// in place, so a cached read of a key with 10 000 resident versions
// allocates exactly what a read of one with 10 does — for an unconstrained
// read, and for one whose lower bound (a cowritten key already read) admits
// every version as a candidate.
func TestReadCostIndependentOfHistory(t *testing.T) {
	ctx := context.Background()
	cost := func(n *Node, keys ...string) (objects, bytes uint64) {
		op := func() {
			txid, err := n.StartTransaction(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if _, err := n.Get(ctx, txid, k); err != nil {
					t.Fatal(err)
				}
			}
			n.AbortTransaction(ctx, txid)
		}
		// Warm up until the node's transaction IDs have four hex digits of
		// sequence number, as every measured one then does: the UUID
		// carries the sequence, so each extra digit adds bytes to an op.
		for i := 0; i < 0x1000; i++ {
			op()
		}
		// The least of a few rounds: anything else the process allocates
		// meanwhile (the test runtime, a map growing) only adds.
		const runs = 1000
		objects, bytes = ^uint64(0), ^uint64(0)
		for round := 0; round < 3; round++ {
			o, b := allocatedDuring(func() {
				for i := 0; i < runs; i++ {
					op()
				}
			})
			objects, bytes = min(objects, o/runs), min(bytes, b/runs)
		}
		return objects, bytes
	}
	short, long := historyNode(t, 10), historyNode(t, 10_000)
	for _, read := range []struct {
		name string
		keys []string
	}{
		{"unconstrained", []string{"hot"}},
		{"constrained", []string{"co", "hot"}},
	} {
		so, sb := cost(short, read.keys...)
		lo, lb := cost(long, read.keys...)
		t.Logf("%s read: %d objects / %d bytes at 10 versions, %d / %d at 10 000", read.name, so, sb, lo, lb)
		if so != lo || sb != lb {
			t.Errorf("%s read: %d objects / %d bytes per op at 10 versions but %d / %d at 10 000",
				read.name, so, sb, lo, lb)
		}
	}
}

const historyValueLen = 1024

// historyNode returns a cached node where key "hot" has versions resident
// versions: the oldest cowritten with "co", the newest committed here with
// its payload cached, and the ones between installed as a peer's records
// (never read, so they need no payload).
func historyNode(tb testing.TB, versions int) *Node {
	tb.Helper()
	clock := idgen.NewVirtualClock(0, 1)
	n, err := NewNode(Config{
		NodeID: "hist", Store: kvengine.NewDynamoDB(kvengine.Options{}),
		EnableDataCache: true, Clock: clock,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	commit := func(keys ...string) {
		txid, _ := n.StartTransaction(ctx)
		for _, k := range keys {
			n.Put(ctx, txid, k, make([]byte, historyValueLen))
		}
		if _, err := n.CommitTransaction(ctx, txid); err != nil {
			tb.Fatal(err)
		}
	}
	commit("hot", "co")
	peer := make([]*records.CommitRecord, versions-2)
	for i := range peer {
		peer[i] = records.NewCommitRecord(idgen.ID{Timestamp: clock.Now(), UUID: fmt.Sprintf("peer-%d", i)}, []string{"hot"}, "peer")
	}
	n.MergeRemoteCommits(peer)
	commit("hot")
	if got := len(n.VersionsOf("hot")); got != versions {
		tb.Fatalf("hot has %d resident versions, want %d", got, versions)
	}
	return n
}
