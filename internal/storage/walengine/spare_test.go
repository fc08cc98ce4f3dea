package walengine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// spareSegBytes is small enough that a test fills several segments with a
// few dozen 1 KB values.
const spareSegBytes = 16 << 10

// putValues puts 1 KB values under "<prefix><i>" into s, starting at i,
// until done reports true, and records every acknowledged one in acked.
// It returns the next i.
func putValues(t *testing.T, s *Store, prefix string, i int, acked map[string]string, done func() bool) int {
	t.Helper()
	for ; !done(); i++ {
		if i > 1000 {
			t.Fatal("condition not reached after 1000 puts")
		}
		k := fmt.Sprintf("%s%04d", prefix, i)
		v := strings.Repeat(k, 1024/len(k))
		mustPut(t, s, k, v)
		acked[k] = v
	}
	return i
}

// activePreallocated reports whether the active segment is a spare, with
// room left before its zeros end.
func activePreallocated(s *Store) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.active.prealloc > s.active.size
}

// sparePending reports whether a spare is being prepared or is ready.
func sparePending(s *Store) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.spare != nil
}

// wantState checks that s holds exactly acked.
func wantState(t *testing.T, s *Store, acked map[string]string) {
	t.Helper()
	keys, err := s.List(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(acked) {
		t.Fatalf("store lists %d keys, %d were acknowledged", len(keys), len(acked))
	}
	for k, v := range acked {
		wantGet(t, s, k, v)
	}
}

// wantNotTorn checks that no reopen so far cut a torn tail.
func wantNotTorn(t *testing.T, s *Store) {
	t.Helper()
	if m := s.WAL().Snapshot(); m.TornRecords != 0 || m.TornBytes != 0 || m.TornBatches != 0 {
		t.Fatalf("torn records/bytes/batches = %d/%d/%d, want none", m.TornRecords, m.TornBytes, m.TornBatches)
	}
}

// TestReopenPreallocatedTailIsNotTorn: the zeros after a segment's written
// bytes are where its log ends. A crash leaves them in the active segment,
// a crash can cost a sealed segment its trim, and a crash can leave a
// whole spare behind; replay over each truncates them, restores the same
// keys and counts nothing as torn.
func TestReopenPreallocatedTailIsNotTorn(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: spareSegBytes, CompactGarbageBytes: noAutoCompact})
	acked := map[string]string{}
	i := putValues(t, s, "k", 0, acked, func() bool { return activePreallocated(s) })
	putValues(t, s, "k", i, acked, func() bool { return len(acked) >= i+2 })
	active := s.segPath(s.active.id)
	written := s.active.size

	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(active); err != nil || info.Size() != spareSegBytes {
		t.Fatalf("active segment after Crash: %v, %v; want its %d zero-filled bytes", info.Size(), err, spareSegBytes)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	wantState(t, s, acked)
	wantNotTorn(t, s)
	if info, err := os.Stat(active); err != nil || info.Size() != written {
		t.Fatalf("active segment after Reopen: %v, %v; want its %d written bytes", info.Size(), err, written)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A sealed segment whose trim a crash lost, and a spare a crash left.
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000009999.seg"), make([]byte, spareSegBytes), 0o644); err != nil {
		t.Fatal(err)
	}
	replayed := s.WAL().ReplayedRecords.Load()
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	wantState(t, s, acked)
	wantNotTorn(t, s)
	if got := s.WAL().ReplayedRecords.Load() - replayed; got != int64(len(acked)) {
		t.Fatalf("replayed %d records, want %d", got, len(acked))
	}
	if info, err := os.Stat(active); err != nil || info.Size() != written {
		t.Fatalf("segment after Reopen: %v, %v; want its %d written bytes", info.Size(), err, written)
	}
}

// openFDs counts this process's open file descriptors, or returns -1
// where /proc does not list them.
func openFDs() int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(fds)
}

// wantNoLeaks waits up to 2 s for the goroutine and descriptor counts to
// fall back to what they were before the test opened its store.
func wantNoLeaks(t *testing.T, goroutines, fds int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		g, f := runtime.NumGoroutine(), openFDs()
		if g <= goroutines && f <= fds {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines and %d open files, want at most %d and %d", g, f, goroutines, fds)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpareSegmentLifecycle closes, crashes and reopens a store while its
// spare is being prepared, and rolls a store whose spare failed. Close and
// Crash wait for the preparation and delete the spare, so nothing leaks, no
// later segment collides with its file, and every acknowledged write comes
// back; a roll without a spare creates its segment itself.
func TestSpareSegmentLifecycle(t *testing.T) {
	opts := Options{SegmentBytes: spareSegBytes, CompactGarbageBytes: noAutoCompact}

	t.Run("close and crash while preparing", func(t *testing.T) {
		goroutines, fds := runtime.NumGoroutine(), openFDs()
		dir := t.TempDir()
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		acked := map[string]string{}
		i := 0
		for _, stop := range []struct {
			name string
			do   func() error
		}{{"Crash", s.Crash}, {"Close", s.Close}} {
			entered, release := make(chan struct{}), make(chan struct{})
			s.spareHook = func() error {
				close(entered)
				<-release
				return nil
			}
			i = putValues(t, s, "k", i, acked, func() bool { return sparePending(s) })
			await(t, entered, "spare preparation")
			stopped := make(chan error, 1)
			go func() { stopped <- stop.do() }()
			select {
			case err := <-stopped:
				t.Fatalf("%s returned (%v) while the spare was being prepared", stop.name, err)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			if err := <-stopped; err != nil {
				t.Fatalf("%s: %v", stop.name, err)
			}
			s.spareHook = nil
			if err := s.Reopen(); err != nil {
				t.Fatalf("Reopen after %s: %v", stop.name, err)
			}
			wantState(t, s, acked)
			wantNotTorn(t, s)
			// The store rolls on: a spare is prepared and taken again.
			rolls := s.WAL().SegmentRolls.Load()
			i = putValues(t, s, "k", i, acked, func() bool { return s.WAL().SegmentRolls.Load() > rolls })
			if !activePreallocated(s) {
				t.Fatalf("after %s and Reopen, the roll did not take a spare", stop.name)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Reopen(); err != nil {
			t.Fatal(err)
		}
		wantState(t, s, acked)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wantNoLeaks(t, goroutines, fds)
	})

	t.Run("roll after a failed spare", func(t *testing.T) {
		goroutines, fds := runtime.NumGoroutine(), openFDs()
		dir := t.TempDir()
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		failed := make(chan struct{})
		s.spareHook = func() error {
			close(failed)
			return errors.New("no space left on device")
		}
		acked := map[string]string{}
		i := putValues(t, s, "k", 0, acked, func() bool { return sparePending(s) })
		await(t, failed, "failed spare preparation")
		putValues(t, s, "k", i, acked, func() bool { return s.WAL().SegmentRolls.Load() > 0 })
		if activePreallocated(s) {
			t.Fatal("the roll took a spare whose preparation failed")
		}
		segs := dirSegments(t, dir)
		if len(segs) != 2 {
			t.Fatalf("segment files %q, want the sealed one and the active one", segs)
		}
		if err := s.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := s.Reopen(); err != nil {
			t.Fatal(err)
		}
		wantState(t, s, acked)
		wantNotTorn(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wantNoLeaks(t, goroutines, fds)
	})
}

// TestRestartsLeaveNoEmptySegments restarts a one-key store ten times
// cleanly and ten times by crashing. A restart appends to the empty segment
// the restart before it opened instead of opening another, so the directory
// keeps at most the written segment and one empty one, the store holds no
// more open files than after its first restart, and the key survives. Its
// last Close brings the open-file count back to where it started.
func TestRestartsLeaveNoEmptySegments(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	start := openFDs()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The first restart seals the written segment and opens an empty one.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	fds := openFDs()
	for _, stop := range []struct {
		name string
		do   func() error
	}{{"Close", s.Close}, {"Crash", s.Crash}} {
		for i := 0; i < 10; i++ {
			if err := stop.do(); err != nil {
				t.Fatalf("%s %d: %v", stop.name, i, err)
			}
			if err := s.Reopen(); err != nil {
				t.Fatalf("Reopen after %s %d: %v", stop.name, i, err)
			}
		}
		if v, err := s.Get(ctx, "k"); err != nil || string(v) != "v" {
			t.Fatalf("after %s cycles: Get(k) = %q, %v", stop.name, v, err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) > 2 {
			t.Fatalf("after 10 %s+Reopen cycles: %d segment files, want at most 2", stop.name, len(segs))
		}
		if f := openFDs(); f != fds {
			t.Fatalf("after 10 %s+Reopen cycles: %d open files, want %d", stop.name, f, fds)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if f := openFDs(); f != start {
		t.Fatalf("after the last Close: %d open files, want %d", f, start)
	}
}

// TestSmallStoreWritesNoSpare: a store that never fills half a segment
// prepares nothing, so its directory holds only the segments it wrote.
func TestSmallStoreWritesNoSpare(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 100; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i), "v")
	}
	if sparePending(s) {
		t.Fatal("a store holding 100 small records prepared a spare")
	}
	if segs := dirSegments(t, dir); !slices.Equal(segs, []string{s.segPath(s.active.id)}) {
		t.Fatalf("segment files %q, want the active one alone", segs)
	}
}

// TestFsyncHistogramCountsRounds: aft_wal_fsync_seconds observes every
// group-fsync round once.
func TestFsyncHistogramCountsRounds(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	for i := 0; i < 20; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i), "v")
	}
	if got, want := s.fsyncTime.Count(), uint64(s.WAL().Fsyncs.Load()); got != want || want == 0 {
		t.Fatalf("histogram counts %d fsyncs, the counter %d", got, want)
	}
}
