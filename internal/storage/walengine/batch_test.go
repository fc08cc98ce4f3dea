package walengine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"aft/internal/storage"
)

// A BatchPut is all-or-nothing across a crash (Capabilities().AtomicBatches):
// these tests enumerate where a crash can cut one, and walk a batch through
// every piece of log management that moves or skips its frames.

// batchItems returns n items "<prefix>0".."<prefix>n-1", each valued
// "v-<key>".
func batchItems(prefix string, n int) map[string][]byte {
	items := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := prefix + strconv.Itoa(i)
		items[k] = []byte("v-" + k)
	}
	return items
}

// present counts how many of items' keys s holds with the right value; a
// key with any other value fails the test.
func present(t *testing.T, s *Store, items map[string][]byte) int {
	t.Helper()
	n := 0
	for k, want := range items {
		got, err := s.Get(context.Background(), k)
		switch {
		case errors.Is(err, storage.ErrNotFound):
		case err != nil || string(got) != string(want):
			t.Fatalf("Get(%s) = %q, %v; want %q or absent", k, got, err, want)
		default:
			n++
		}
	}
	return n
}

// copyLog copies every segment file of src into a fresh directory, cutting
// the segment named cutName to cut bytes.
func copyLog(t *testing.T, src, cutName string, cut int64) string {
	t.Helper()
	dst := t.TempDir()
	for _, path := range dirSegments(t, src) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		if name == cutName {
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestBatchAtomicAtEveryTruncation crashes a log at every byte of a
// five-item batch: the record before the batch always survives, and the
// batch's keys survive together — none at any cut short of its last byte,
// all five there. The tiny-segment case sets SegmentBytes so low that an
// engine rolling per record would seal (and so fsync) the batch's first
// frames on their own.
func TestBatchAtomicAtEveryTruncation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default segments", Options{CompactGarbageBytes: noAutoCompact}},
		{"tiny segments", Options{SegmentBytes: 64, CompactGarbageBytes: noAutoCompact}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			src := t.TempDir()
			s := openT(t, src, tc.opts)
			mustPut(t, s, "solo", "kept")
			items := batchItems("batch-", 5)
			seg, start := s.active.id, s.active.size
			if err := s.BatchPut(ctx, items); err != nil {
				t.Fatal(err)
			}
			if s.active.id != seg {
				t.Fatalf("batch rolled from segment %d into %d", seg, s.active.id)
			}
			end := s.active.size
			firstFrame := int64(frameHeader + bodyHeader + len("batch-0") + len("v-batch-0"))
			if end-start != 5*firstFrame {
				t.Fatalf("batch occupies %d bytes of segment %d, want %d", end-start, seg, 5*firstFrame)
			}
			segName := filepath.Base(s.segPath(seg))
			if err := s.Crash(); err != nil {
				t.Fatal(err)
			}

			for cut := start; cut <= end; cut++ {
				c := openT(t, copyLog(t, src, segName, cut), tc.opts)
				wantGet(t, c, "solo", "kept")
				want, wantTorn, wantTornBatches := 0, int64(1), int64(0)
				switch {
				case cut == end:
					want, wantTorn = 5, 0
				case cut == start:
					wantTorn = 0
				case cut >= start+firstFrame:
					wantTornBatches = 1
				}
				if got := present(t, c, items); got != want {
					t.Fatalf("cut at byte %d of [%d,%d]: %d of 5 batch keys survive, want %d", cut, start, end, got, want)
				}
				m := c.WAL().Snapshot()
				if m.TornRecords != wantTorn || m.TornBatches != wantTornBatches {
					t.Fatalf("cut at byte %d of [%d,%d]: torn records/batches = %d/%d, want %d/%d",
						cut, start, end, m.TornRecords, m.TornBatches, wantTorn, wantTornBatches)
				}
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestCompactedBatchSurvivorsStandAlone compacts a sealed batch two of whose
// members — the closing frame among them — have been overwritten since. The
// three survivors are copied without their batch-mates, so each copy must
// have shed its continuation bit: left on, the compacted segment would end
// in an unterminated batch and replay would drop all three.
func TestCompactedBatchSurvivorsStandAlone(t *testing.T) {
	ctx := context.Background()
	s := openT(t, t.TempDir(), Options{CompactGarbageBytes: noAutoCompact})
	items := batchItems("k", 5)
	if err := s.BatchPut(ctx, items); err != nil {
		t.Fatal(err)
	}
	if err := s.SealActive(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "k1", "new")
	mustPut(t, s, "k4", "new") // k4 sorts last: the batch's closing frame
	if err := s.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.WAL().CompactedSegments.Load(); got != 1 {
		t.Fatalf("compacted %d segments, want 1", got)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		wantGet(t, s, k, "v-"+k)
	}
	wantGet(t, s, "k1", "new")
	wantGet(t, s, "k4", "new")
	if m := s.WAL().Snapshot(); m.TornRecords != 0 || m.TornBatches != 0 {
		t.Fatalf("reopen after compaction tore %d records, %d batches; want none", m.TornRecords, m.TornBatches)
	}
}

// TestCheckpointBetweenBatches lets the automatic checkpoint fire after one
// batch, appends another, and crashes: the first batch is restored from the
// checkpoint, whose covered watermark is a batch boundary, and exactly the
// second is replayed from the tail.
func TestCheckpointBetweenBatches(t *testing.T) {
	ctx := context.Background()
	s := openT(t, t.TempDir(), Options{CheckpointEvery: 5, CompactGarbageBytes: noAutoCompact})
	first, second := batchItems("first-", 5), batchItems("second-", 3)
	if err := s.BatchPut(ctx, first); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); s.WAL().Checkpoints.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no automatic checkpoint after CheckpointEvery appends")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.BatchPut(ctx, second); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	before := s.WAL().Snapshot()
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	m := s.WAL().Snapshot()
	if got := m.CheckpointRestored - before.CheckpointRestored; got != 5 {
		t.Fatalf("restored %d entries from the checkpoint, want the first batch's 5", got)
	}
	if got := m.ReplayedTailRecords - before.ReplayedTailRecords; got != 3 {
		t.Fatalf("replayed %d tail records, want the second batch's 3", got)
	}
	if m.TornRecords != 0 || m.TornBatches != 0 {
		t.Fatalf("reopen tore %d records, %d batches; want none", m.TornRecords, m.TornBatches)
	}
	if got := present(t, s, first) + present(t, s, second); got != 8 {
		t.Fatalf("%d of 8 keys survive, want all", got)
	}
}

// fuzzSeed returns the bytes of a committed FuzzOpenSegment seed.
func fuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzOpenSegment", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n")), "[]byte(")
	if !ok {
		t.Fatalf("seed %s is not one []byte literal", name)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
	return []byte(data)
}

// TestOldFormatSegmentsReplayUnchanged opens segments written before the
// continuation bit existed (the fuzz seeds recorded then): no frame carries
// the bit, so each is a batch of one and the log replays to the keys it
// always did.
func TestOldFormatSegmentsReplayUnchanged(t *testing.T) {
	for seed, want := range map[string]map[string]string{
		"two-records":     {"alpha": "one", "beta": "two"},
		"put-then-delete": {"beta": "two"},
	} {
		t.Run(seed, func(t *testing.T) {
			dir := t.TempDir()
			data := fuzzSeed(t, seed)
			if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.seg"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			s := openT(t, dir, Options{})
			keys, err := s.List(context.Background(), "")
			if err != nil {
				t.Fatal(err)
			}
			wantKeys := make([]string, 0, len(want))
			for k, v := range want {
				wantKeys = append(wantKeys, k)
				wantGet(t, s, k, v)
			}
			slices.Sort(wantKeys)
			if !slices.Equal(keys, wantKeys) {
				t.Fatalf("replayed keys %q, want %q", keys, wantKeys)
			}
			if m := s.WAL().Snapshot(); m.TornBytes != 0 || m.TornBatches != 0 || m.ReplayedRecords == 0 {
				t.Fatalf("old-format replay: %+v", m)
			}
			if kept, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.seg")); err != nil || string(kept) != string(data) {
				t.Fatalf("old-format segment was rewritten (%d of %d bytes, %v)", len(kept), len(data), err)
			}
		})
	}
}

// TestFailedAppendLeavesNoTrace fails a batch's write and checks that the
// engine — index, sequence numbers, file — is as the call found it.
func TestFailedAppendLeavesNoTrace(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactGarbageBytes: noAutoCompact})
	mustPut(t, s, "before", "1")
	// Swap the active segment's handle for a read-only one: WriteAt fails.
	path := s.segPath(s.active.id)
	rw := s.active.f
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.active.f = ro
	items := batchItems("lost-", 3)
	if err := s.BatchPut(ctx, items); err == nil {
		t.Fatal("BatchPut over a read-only segment succeeded")
	}
	s.active.f = rw
	ro.Close()
	if got := present(t, s, items); got != 0 {
		t.Fatalf("%d items of a failed batch are readable", got)
	}
	mustPut(t, s, "after", "2")
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	wantGet(t, s, "before", "1")
	wantGet(t, s, "after", "2")
	if got := present(t, s, items); got != 0 {
		t.Fatalf("%d items of a failed batch replayed", got)
	}
	if keys, _ := s.List(ctx, ""); len(keys) != 2 {
		t.Fatalf("keys after reopen = %q, want %q", keys, []string{"after", "before"})
	}
}
