package bench

// wal_bench_test.go benchmarks the durable WAL storage engine: the
// fsync-bound write path (solo and group-coalesced), the batch append
// path, and log replay on reopen. Unlike the protocol benchmarks these
// touch the real disk — the interesting numbers are appends/fsync (the
// group-fsync economy) and replayed records/second.

import (
	"context"
	"fmt"
	"testing"

	"aft/internal/storage/walengine"
	"aft/internal/workload"
)

func mkWAL(b *testing.B) *walengine.Store {
	b.Helper()
	s, err := walengine.Open(b.TempDir(), walengine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkWALPut measures the acknowledged (fsynced) point-write path.
// The Parallel case is the group-fsync window's home turf: concurrent
// writers share flushes, so acknowledged writes/second rises well above
// the solo fsync rate.
func BenchmarkWALPut(b *testing.B) {
	payload := workload.Payload(1, 1024)
	ctx := context.Background()
	b.Run("Solo", func(b *testing.B) {
		s := mkWAL(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Put(ctx, workload.KeyName(i%512), payload); err != nil {
				b.Fatal(err)
			}
		}
		reportWAL(b, s)
	})
	b.Run("Parallel", func(b *testing.B) {
		s := mkWAL(b)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if err := s.Put(ctx, workload.KeyName(i%512), payload); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
		reportWAL(b, s)
	})
}

// BenchmarkWALBatchPut measures the batch append path: one lock hold and
// one shared fsync per 16-item batch.
func BenchmarkWALBatchPut(b *testing.B) {
	payload := workload.Payload(2, 1024)
	ctx := context.Background()
	s := mkWAL(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		items := make(map[string][]byte, 16)
		for j := 0; j < 16; j++ {
			items[fmt.Sprintf("b-%d-%d", i%64, j)] = payload
		}
		if err := s.BatchPut(ctx, items); err != nil {
			b.Fatal(err)
		}
	}
	reportWAL(b, s)
}

// BenchmarkWALReopen measures crash-recovery replay: each iteration
// reopens a 4096-key log (multiple segments, overwrites included) and
// rebuilds the index.
func BenchmarkWALReopen(b *testing.B) {
	ctx := context.Background()
	s, err := walengine.Open(b.TempDir(), walengine.Options{SegmentBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	payload := workload.Payload(3, 512)
	const keys = 4096
	for round := 0; round < 2; round++ { // overwrites: replay resolves by LSN
		items := make(map[string][]byte, 64)
		for i := 0; i < keys; i++ {
			items[workload.KeyName(i)] = payload
			if len(items) == 64 {
				if err := s.BatchPut(ctx, items); err != nil {
					b.Fatal(err)
				}
				items = make(map[string][]byte, 64)
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Reopen(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if s.Len() != keys {
			b.Fatalf("replay recovered %d keys, want %d", s.Len(), keys)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	w := s.WAL().Snapshot()
	if b.N > 0 {
		b.ReportMetric(float64(w.ReplayedRecords)/float64(b.N), "records/reopen")
	}
}

// reportWAL attaches the coalescing evidence to a write benchmark.
func reportWAL(b *testing.B, s *walengine.Store) {
	b.Helper()
	w := s.WAL().Snapshot()
	if w.Fsyncs > 0 {
		b.ReportMetric(w.AppendsPerFsync, "appends/fsync")
	}
}
