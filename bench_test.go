// Package bench holds the repository's top-level benchmarks of the node's
// hot paths: parallel reads and commits, the read path, commit phases, the
// WAL and the wire.
//
// These benches run with zero injected latency, so they measure the CPU
// cost of the protocols themselves (Algorithm 1 reads, the write-ordering
// commit, GC sweeps). The paper's tables and figures are reproduced, with
// latency modelled, by cmd/aft-bench.
package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
	"aft/internal/workload"
)

func commitKVs(b *testing.B, n *core.Node, kvs map[string][]byte) {
	b.Helper()
	ctx := context.Background()
	txid, err := n.StartTransaction(ctx)
	if err != nil {
		b.Fatal(err)
	}
	for k, v := range kvs {
		if err := n.Put(ctx, txid, k, v); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		b.Fatal(err)
	}
}

// mkParallelNode builds the node the BenchmarkParallel* family drives.
func mkParallelNode(b *testing.B, cache bool) *core.Node {
	b.Helper()
	n, err := core.NewNode(core.Config{
		NodeID:          "bench",
		Store:           kvengine.NewDynamoDB(kvengine.Options{}),
		EnableDataCache: cache,
	})
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkParallelCommit measures the contended parallel commit path: every
// transaction writes one of 8 hot keys plus a key from a wider pool, so
// commits collide on the hot stripes; each commit runs its own flush.
func BenchmarkParallelCommit(b *testing.B) {
	payload := workload.Payload(1, 1024)
	n := mkParallelNode(b, false)
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			txid, err := n.StartTransaction(ctx)
			if err != nil {
				b.Error(err)
				return
			}
			n.Put(ctx, txid, workload.KeyName(i%8), payload)
			n.Put(ctx, txid, fmt.Sprintf("w-%d", i%512), payload)
			if _, err := n.CommitTransaction(ctx, txid); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	sm := storeMetrics(b, n)
	if sm.Batches > 0 {
		b.ReportMetric(sm.ItemsPerBatch(), "items/batch")
	}
}

// BenchmarkParallelRead measures the parallel read path over a seeded
// keyspace: three Algorithm-1 selections per transaction, cache enabled.
func BenchmarkParallelRead(b *testing.B) {
	payload := workload.Payload(1, 1024)
	n := mkParallelNode(b, true)
	ctx := context.Background()
	for i := 0; i < 256; i++ {
		commitKVs(b, n, map[string][]byte{workload.KeyName(i): payload})
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			txid, err := n.StartTransaction(ctx)
			if err != nil {
				b.Error(err)
				return
			}
			for j := 0; j < 3; j++ {
				if _, err := n.Get(ctx, txid, workload.KeyName((i+j*85)%256)); err != nil {
					b.Error(err)
					return
				}
			}
			n.AbortTransaction(ctx, txid)
			i++
		}
	})
}

// BenchmarkParallelMixed measures the contended read/write mix — two reads
// and one hot-key write per transaction — with a concurrent sweeper, the
// closest zero-latency analogue of a node serving live traffic while its
// local GC runs.
func BenchmarkParallelMixed(b *testing.B) {
	payload := workload.Payload(1, 1024)
	n := mkParallelNode(b, true)
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		commitKVs(b, n, map[string][]byte{workload.KeyName(i): payload})
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				n.SweepLocalMetadata(128)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			txid, err := n.StartTransaction(ctx)
			if err != nil {
				b.Error(err)
				return
			}
			if _, err := n.Get(ctx, txid, workload.KeyName(i%64)); err != nil {
				b.Error(err)
				return
			}
			if _, err := n.Get(ctx, txid, workload.KeyName((i+31)%64)); err != nil {
				b.Error(err)
				return
			}
			n.Put(ctx, txid, workload.KeyName(i%8), payload)
			if _, err := n.CommitTransaction(ctx, txid); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
}

// BenchmarkReadPath measures the read pipeline's storage profile:
// ColdFetch reads keys whose metadata must be recovered from storage (1
// List + ceil(N/batch) record BatchGets + 1 payload Get per key), and
// MultiGet reads 10-key batches with the data cache off (1 BatchGet per
// transaction). Acceptance is in storage calls (the calls/coldread and
// calls/txn metrics), not wall-clock — the simulators have no injected
// latency here.
func BenchmarkReadPath(b *testing.B) {
	payload := workload.Payload(1, 1024)
	const versions = 30

	b.Run("ColdFetch", func(b *testing.B) {
		store := kvengine.NewDynamoDB(kvengine.Options{})
		seeder, err := core.NewNode(core.Config{NodeID: "seed", Store: store})
		if err != nil {
			b.Fatal(err)
		}
		for v := 0; v < versions; v++ {
			commitKVs(b, seeder, map[string][]byte{"cold": payload})
		}
		// One newer record: a reader bootstrapping with BootstrapLimit 1
		// warms only it and drops every version of "cold".
		commitKVs(b, seeder, map[string][]byte{"warm": payload})
		ctx := context.Background()
		var calls int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A fresh reader per iteration, in partial-metadata mode after
			// its truncated bootstrap: every read of "cold" is cold.
			b.StopTimer()
			reader, err := core.NewNode(core.Config{NodeID: "cold-reader", Store: store, BootstrapLimit: 1})
			if err != nil {
				b.Fatal(err)
			}
			if err := reader.Bootstrap(ctx); err != nil {
				b.Fatal(err)
			}
			before := store.Metrics().Snapshot()
			b.StartTimer()
			txid, _ := reader.StartTransaction(ctx)
			if _, err := reader.Get(ctx, txid, "cold"); err != nil {
				b.Fatal(err)
			}
			calls += store.Metrics().Snapshot().Sub(before).Calls()
			reader.AbortTransaction(ctx, txid)
		}
		b.StopTimer()
		b.ReportMetric(float64(calls)/float64(b.N), "calls/coldread")
	})

	b.Run("MultiGet", func(b *testing.B) {
		// No data cache: every payload hits storage.
		n, err := core.NewNode(core.Config{NodeID: "mg-bench", Store: kvengine.NewDynamoDB(kvengine.Options{})})
		if err != nil {
			b.Fatal(err)
		}
		const nKeys = 64
		keys := make([]string, nKeys)
		for i := range keys {
			keys[i] = workload.KeyName(i)
			commitKVs(b, n, map[string][]byte{keys[i]: payload})
		}
		ctx := context.Background()
		before := storeMetrics(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			txid, _ := n.StartTransaction(ctx)
			batch := make([]string, 10)
			for j := range batch {
				batch[j] = keys[(i*10+j)%nKeys]
			}
			if _, err := n.MultiGet(ctx, txid, batch); err != nil {
				b.Fatal(err)
			}
			n.AbortTransaction(ctx, txid)
		}
		b.StopTimer()
		d := storeMetrics(b, n).Sub(before)
		b.ReportMetric(float64(d.Calls())/float64(b.N), "calls/txn")
	})
}

// historySizes are the resident-version counts the history benchmarks
// compare: a cost that does not grow with history reads the same at both.
var historySizes = []int{1_000, 10_000}

// hotKeyNode returns a cached node on a virtual clock whose key "hot" has
// versions resident versions: the oldest cowritten with "co", the newest
// committed with its payload cached, and those between merged as a peer's
// records.
func hotKeyNode(b *testing.B, versions int) *core.Node {
	b.Helper()
	clock := idgen.NewVirtualClock(0, 1)
	n, err := core.NewNode(core.Config{
		NodeID: "hist", Store: kvengine.NewDynamoDB(kvengine.Options{}),
		EnableDataCache: true, Clock: clock,
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := workload.Payload(1, 1024)
	commitKVs(b, n, map[string][]byte{"hot": payload, "co": payload})
	n.MergeRemoteCommits(hotKeyRecords(clock, versions-2))
	commitKVs(b, n, map[string][]byte{"hot": payload})
	return n
}

// hotKeyRecords returns count commit records of key "hot", ascending, with
// timestamps from clock.
func hotKeyRecords(clock idgen.Clock, count int) []*records.CommitRecord {
	recs := make([]*records.CommitRecord, count)
	for i := range recs {
		recs[i] = records.NewCommitRecord(idgen.ID{Timestamp: clock.Now(), UUID: fmt.Sprintf("peer-%d", i)}, []string{"hot"}, "peer")
	}
	return recs
}

// BenchmarkReadPathHistory measures a cached read of a key with 1 000 and
// with 10 000 resident versions: Algorithm 1 walks the version list in
// place, newest first, so ns/op and allocs/op match across the sizes. The
// constrained read first reads "co", whose version is the oldest of "hot",
// so every version of "hot" is a candidate.
func BenchmarkReadPathHistory(b *testing.B) {
	ctx := context.Background()
	for _, versions := range historySizes {
		for _, read := range []struct {
			name string
			keys []string
		}{{"unconstrained", []string{"hot"}}, {"constrained", []string{"co", "hot"}}} {
			b.Run(fmt.Sprintf("%s/versions=%d", read.name, versions), func(b *testing.B) {
				n := hotKeyNode(b, versions)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					txid, _ := n.StartTransaction(ctx)
					for _, k := range read.keys {
						if _, err := n.Get(ctx, txid, k); err != nil {
							b.Fatal(err)
						}
					}
					n.AbortTransaction(ctx, txid)
				}
			})
		}
	}
}

// BenchmarkReadPathSweepHotKey measures the local sweep retiring every
// superseded version of one hot key, oldest first: each removal takes the
// front of the version list without shifting it, so ns/version matches at
// 1 000 and at 10 000 versions.
func BenchmarkReadPathSweepHotKey(b *testing.B) {
	for _, versions := range historySizes {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			recs := hotKeyRecords(idgen.NewVirtualClock(0, 1), versions)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n, err := core.NewNode(core.Config{NodeID: "sweep", Store: kvengine.NewDynamoDB(kvengine.Options{})})
				if err != nil {
					b.Fatal(err)
				}
				n.MergeRemoteCommits(recs)
				b.StartTimer()
				if got := len(n.SweepLocalMetadata(0)); got != versions-1 {
					b.Fatalf("swept %d versions, want %d", got, versions-1)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(versions-1)), "ns/version")
		})
	}
}

func storeMetrics(b *testing.B, n *core.Node) storage.Snapshot {
	b.Helper()
	type metered interface{ Metrics() *storage.Metrics }
	sm, ok := n.Store().(metered)
	if !ok {
		b.Fatal("store has no metrics")
	}
	return sm.Metrics().Snapshot()
}

// rttStore adds a fixed round trip to every write call of the engine it
// wraps, so a commit's wall time counts the round trips it waited out.
type rttStore struct {
	storage.Store
	rtt time.Duration
}

func (s rttStore) Put(ctx context.Context, key string, value []byte) error {
	time.Sleep(s.rtt)
	return s.Store.Put(ctx, key, value)
}

func (s rttStore) BatchPut(ctx context.Context, items map[string][]byte) error {
	time.Sleep(s.rtt)
	return s.Store.BatchPut(ctx, items)
}

// BenchmarkCommitPhases measures the round trips one commit waits out where
// a write phase is more than one storage call: 8 keys on an engine without
// batch writes (Redis), 60 keys at DynamoDB's 25-item batch limit. Every
// write call costs a fixed 1 ms, and waits/commit is the commit's wall time
// in those round trips: about 2 (data, then record) when a phase sends its
// calls together, 9 and 4 when they go one after another. The 4 KB values
// keep both write sets too large to ride inside the record.
func BenchmarkCommitPhases(b *testing.B) {
	const rtt = time.Millisecond
	payload := workload.Payload(1, 4096)
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		store storage.Store
		keys  int
	}{
		{"redis/keys=8", kvengine.NewRedis(0, kvengine.Options{}), 8},
		{"dynamodb/keys=60", kvengine.NewDynamoDB(kvengine.Options{}), 60},
	} {
		b.Run(tc.name, func(b *testing.B) {
			n, err := core.NewNode(core.Config{NodeID: "phases", Store: rttStore{tc.store, rtt}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				txid, err := n.StartTransaction(ctx)
				if err != nil {
					b.Fatal(err)
				}
				for k := range tc.keys {
					if err := n.Put(ctx, txid, fmt.Sprintf("k%02d", k), payload); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := n.CommitTransaction(ctx, txid); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(rtt), "waits/commit")
		})
	}
}
