package walengine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aft/internal/storage"
)

// noAutoCompact is a CompactGarbageBytes no test reaches: the store
// compacts only when the test calls Compact.
const noAutoCompact = math.MaxInt64

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, key, value string) {
	t.Helper()
	if err := s.Put(context.Background(), key, []byte(value)); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func wantGet(t *testing.T, s *Store, key, value string) {
	t.Helper()
	v, err := s.Get(context.Background(), key)
	if err != nil || string(v) != value {
		t.Fatalf("Get(%s) = %q, %v; want %q", key, v, err, value)
	}
}

func wantMissing(t *testing.T, s *Store, key string) {
	t.Helper()
	if _, err := s.Get(context.Background(), key); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get(%s) = %v, want ErrNotFound", key, err)
	}
}

// TestCloseReopenRestoresState round-trips puts, overwrites, and deletes
// through a clean restart.
func TestCloseReopenRestoresState(t *testing.T) {
	ctx := context.Background()
	s := openT(t, t.TempDir(), Options{})
	mustPut(t, s, "a", "1")
	mustPut(t, s, "b", "2")
	mustPut(t, s, "a", "3")
	if err := s.Put(ctx, "empty", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "a"); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("Get after Close = %v, want ErrUnavailable", err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	wantGet(t, s, "a", "3")
	wantMissing(t, s, "b")
	wantGet(t, s, "empty", "")
	keys, err := s.List(ctx, "")
	if err != nil || len(keys) != 2 {
		t.Fatalf("List = %v, %v", keys, err)
	}
}

// TestCrashPreservesAcknowledgedWrites is the durability contract: every
// write that was acknowledged before a crash must survive the replay.
func TestCrashPreservesAcknowledgedWrites(t *testing.T) {
	s := openT(t, t.TempDir(), Options{SegmentBytes: 1 << 12})
	const n = 200
	for i := 0; i < n; i++ {
		mustPut(t, s, fmt.Sprintf("k-%03d", i), fmt.Sprintf("v-%d", i))
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		wantGet(t, s, fmt.Sprintf("k-%03d", i), fmt.Sprintf("v-%d", i))
	}
}

// TestReopenTruncatesTornFinalRecord simulates a crash that tore the last
// frame: garbage appended past the durable tail must be truncated away and
// every acknowledged write must still read back.
func TestReopenTruncatesTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	mustPut(t, s, "a", "1")
	mustPut(t, s, "b", "2")
	activePath := s.segPath(s.active.id)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, torn := range []struct {
		name string
		tail []byte
	}{
		{"short header", []byte{0x00, 0x00}},
		{"length past EOF", []byte{0x00, 0x00, 0xff, 0xff, 0xde, 0xad, 0xbe, 0xef, 0x01}},
		{"crc mismatch", func() []byte {
			// A plausible frame whose body bytes were never fully written:
			// length 16, bogus CRC, 16 zero bytes.
			b := make([]byte, frameHeader+16)
			b[3] = 16
			return b
		}()},
	} {
		t.Run(torn.name, func(t *testing.T) {
			clean, err := os.ReadFile(activePath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(activePath, append(append([]byte(nil), clean...), torn.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := s.Reopen(); err != nil {
				t.Fatal(err)
			}
			wantGet(t, s, "a", "1")
			wantGet(t, s, "b", "2")
			if got := s.WAL().Snapshot().TornRecords; got < 1 {
				t.Fatalf("TornRecords = %d, want >= 1", got)
			}
			if data, err := os.ReadFile(activePath); err != nil || len(data) != len(clean) {
				t.Fatalf("torn tail not truncated: %d bytes, want %d (%v)", len(data), len(clean), err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := s.Reopen(); err != nil { // leave open for the cleanup Close
		t.Fatal(err)
	}
}

// TestCompactionReclaimsGarbage overwrites and deletes enough to span
// several sealed segments, compacts, and verifies both the live state and
// the reclaimed bytes.
func TestCompactionReclaimsGarbage(t *testing.T) {
	ctx := context.Background()
	s := openT(t, t.TempDir(), Options{SegmentBytes: 1 << 12, CompactGarbageBytes: noAutoCompact})
	for round := 0; round < 20; round++ {
		for i := 0; i < 16; i++ {
			mustPut(t, s, fmt.Sprintf("k-%02d", i), fmt.Sprintf("v-%d-%d", round, i))
		}
	}
	if err := s.BatchDelete(ctx, []string{"k-00", "k-01", "k-02"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SealActive(); err != nil {
		t.Fatal(err)
	}
	before := len(dirSegments(t, s.dir))
	if before < 3 {
		t.Fatalf("want >= 3 segments before compaction, got %d", before)
	}
	if err := s.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	w := s.WAL().Snapshot()
	if w.CompactedSegments < int64(before-1) {
		t.Fatalf("CompactedSegments = %d, want >= %d", w.CompactedSegments, before-1)
	}
	if w.BytesReclaimed <= 0 {
		t.Fatalf("BytesReclaimed = %d, want > 0", w.BytesReclaimed)
	}
	for i := 3; i < 16; i++ {
		wantGet(t, s, fmt.Sprintf("k-%02d", i), fmt.Sprintf("v-19-%d", i))
	}
	wantMissing(t, s, "k-00")
	// The compacted state must also survive a restart.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 16; i++ {
		wantGet(t, s, fmt.Sprintf("k-%02d", i), fmt.Sprintf("v-19-%d", i))
	}
	wantMissing(t, s, "k-01")
}

// dirSegments lists the segment files in dir.
func dirSegments(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestReopenMidCompaction simulates a crash between writing the compacted
// segment and removing the sealed ones: both the old and the new segment
// are present on reopen, and LSN-based replay must resolve the duplicates
// to the same state. A second variant tears the compacted segment itself
// (the crash landed mid-copy).
func TestReopenMidCompaction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: 1 << 12, CompactGarbageBytes: noAutoCompact})
	for round := 0; round < 10; round++ {
		for i := 0; i < 16; i++ {
			mustPut(t, s, fmt.Sprintf("k-%02d", i), fmt.Sprintf("v-%d-%d", round, i))
		}
	}
	if err := s.Delete(ctx, "k-15"); err != nil {
		t.Fatal(err)
	}
	if err := s.SealActive(); err != nil {
		t.Fatal(err)
	}
	// Preserve the sealed files, compact (which deletes them), then
	// restore them alongside the compacted output: the exact on-disk
	// picture of a crash after the compacted segment went durable but
	// before the sealed range was unlinked.
	preserved := map[string][]byte{}
	for _, p := range dirSegments(t, dir) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		preserved[p] = data
	}
	if err := s.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for p, data := range preserved {
		if _, err := os.Stat(p); os.IsNotExist(err) {
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("old and new both present", func(t *testing.T) {
		if err := s.Reopen(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			wantGet(t, s, fmt.Sprintf("k-%02d", i), fmt.Sprintf("v-9-%d", i))
		}
		wantMissing(t, s, "k-15")
		// The duplicated range must still be compactable afterwards.
		if err := s.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		wantGet(t, s, "k-00", "v-9-0")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("compacted segment torn mid-copy", func(t *testing.T) {
		// Restore the sealed files again and tear the tail off the
		// largest compacted file: replay must fall back to the originals.
		for p, data := range preserved {
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		segs := dirSegments(t, dir)
		var newest string
		for _, p := range segs {
			if preserved[p] == nil && p > newest {
				newest = p
			}
		}
		if newest == "" {
			t.Fatal("no compacted segment found")
		}
		info, err := os.Stat(newest)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(newest, info.Size()/2); err != nil {
			t.Fatal(err)
		}
		if err := s.Reopen(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 15; i++ {
			wantGet(t, s, fmt.Sprintf("k-%02d", i), fmt.Sprintf("v-9-%d", i))
		}
		wantMissing(t, s, "k-15")
	})
}

// TestTombstoneSurvivesRestart pins the resurrection hazard: a put in an
// early segment, its delete in a later one, and a restart in between must
// never bring the value back — including after compaction drops both.
func TestTombstoneSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	s := openT(t, t.TempDir(), Options{SegmentBytes: 1 << 10, CompactGarbageBytes: noAutoCompact})
	mustPut(t, s, "ghost", "boo")
	if err := s.SealActive(); err != nil { // put and tombstone in different segments
		t.Fatal(err)
	}
	if err := s.Delete(ctx, "ghost"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	wantMissing(t, s, "ghost")
	if err := s.SealActive(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	wantMissing(t, s, "ghost")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	wantMissing(t, s, "ghost")
}

// holdRound returns a syncHook that parks round r at its start: entered is
// closed when the round begins, and the round goes on, with err in place of
// its fsync when err is not nil, once release is closed. Other rounds run
// untouched.
func holdRound(r uint64, err error) (hook func(uint64) error, entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	return func(round uint64) error {
		if round != r {
			return nil
		}
		close(entered)
		<-release
		return err
	}, entered, release
}

// waitParked blocks until n durability waits are registered for the round
// after the running one.
func waitParked(t *testing.T, s *Store, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.sy.mu.Lock()
		got := s.sy.waiting
		s.sy.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d writers wait for the next fsync round, want %d", got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// putAsync runs a Put on its own goroutine and returns its outcome's
// channel.
func putAsync(s *Store, key string) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.Put(context.Background(), key, []byte("v")) }()
	return done
}

// await fails t unless ch is closed within five seconds.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never happened", what)
	}
}

// outcome returns what a putAsync write returned, failing t if it has not
// returned within five seconds.
func outcome(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("a write was never acknowledged")
		return nil
	}
}

// TestGroupFsyncCoalesces: every write that arrives while an fsync runs
// shares the next one. Round 1 is held until N writers wait behind it;
// then the N+1 appends cost exactly two fsyncs.
func TestGroupFsyncCoalesces(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	hook, entered, release := holdRound(1, nil)
	s.syncHook = hook
	const writers = 16
	first := putAsync(s, "first")
	await(t, entered, "round 1")
	var rest []<-chan error
	for i := 0; i < writers; i++ {
		rest = append(rest, putAsync(s, fmt.Sprintf("w%d", i)))
	}
	waitParked(t, s, writers)
	close(release)
	for _, done := range append(rest, first) {
		if err := outcome(t, done); err != nil {
			t.Fatal(err)
		}
	}
	w := s.WAL().Snapshot()
	if w.Appends != writers+1 || w.Fsyncs != 2 {
		t.Fatalf("appends/fsyncs = %d/%d, want %d/2", w.Appends, w.Fsyncs, writers+1)
	}
}

// TestSyncWaitNeedsARoundBegunAfterIt: a write that arrives while an fsync
// runs is not acknowledged by that fsync, which may have begun before the
// write's bytes landed; it waits for the next round.
func TestSyncWaitNeedsARoundBegunAfterIt(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	hold1, entered1, release1 := holdRound(1, nil)
	hold2, entered2, release2 := holdRound(2, nil)
	s.syncHook = func(r uint64) error {
		if err := hold1(r); err != nil {
			return err
		}
		return hold2(r)
	}
	first := putAsync(s, "first")
	await(t, entered1, "round 1")
	late := putAsync(s, "late")
	waitParked(t, s, 1)
	close(release1)
	if err := outcome(t, first); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-late:
		t.Fatalf("a write was acknowledged by the fsync running when it arrived (err %v)", err)
	case <-entered2:
	case <-time.After(5 * time.Second):
		t.Fatal("round 2 never began")
	}
	close(release2)
	if err := outcome(t, late); err != nil {
		t.Fatal(err)
	}
	if !syncedUp(s) {
		t.Fatal("a write was acknowledged before the log was durable through it")
	}
}

// TestSyncWaitFailsWithItsRound: an fsync error reaches every write that
// waited on that round, and a later round's success acknowledges none of
// them. Round 2 fails under N writers; a write that arrives during round 2
// is answered by round 3, which succeeds.
func TestSyncWaitFailsWithItsRound(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	errFsync := errors.New("injected fsync failure")
	hold1, entered1, release1 := holdRound(1, nil)
	hold2, entered2, release2 := holdRound(2, errFsync)
	s.syncHook = func(r uint64) error {
		if err := hold1(r); err != nil {
			return err
		}
		return hold2(r)
	}
	const writers = 8
	first := putAsync(s, "first")
	await(t, entered1, "round 1")
	var failing []<-chan error
	for i := 0; i < writers; i++ {
		failing = append(failing, putAsync(s, fmt.Sprintf("w%d", i)))
	}
	waitParked(t, s, writers)
	close(release1)
	if err := outcome(t, first); err != nil {
		t.Fatal(err)
	}
	await(t, entered2, "round 2")
	late := putAsync(s, "late")
	waitParked(t, s, 1)
	close(release2)
	for i, done := range failing {
		if err := outcome(t, done); !errors.Is(err, errFsync) {
			t.Errorf("writer %d of the failed round = %v, want the fsync error", i, err)
		}
	}
	if err := outcome(t, late); err != nil {
		t.Fatalf("write answered by the round after the failure = %v", err)
	}
	s.sy.mu.Lock()
	left := len(s.sy.failed)
	s.sy.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d failed rounds still held after every waiter collected", left)
	}
}

// TestConcurrentAppendCompactReadStress races writers, deleters, readers,
// listers, and explicit compactions; run under -race in CI. Afterwards a
// crash+reopen must reproduce the final state exactly.
func TestConcurrentAppendCompactReadStress(t *testing.T) {
	ctx := context.Background()
	s := openT(t, t.TempDir(), Options{SegmentBytes: 1 << 12, CompactGarbageBytes: 1 << 12})
	const writers, rounds, keys = 8, 120, 32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := fmt.Sprintf("k-%02d", (w*rounds+i)%keys)
				switch i % 5 {
				case 0:
					if err := s.BatchPut(ctx, map[string][]byte{
						k:                         []byte(fmt.Sprintf("w%d-%d", w, i)),
						fmt.Sprintf("w%d-own", w): []byte(fmt.Sprint(i)),
					}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if err := s.Delete(ctx, k); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := s.List(ctx, "k-"); err != nil {
						t.Error(err)
						return
					}
				case 3:
					if _, err := s.BatchGet(ctx, []string{k, "missing"}); err != nil {
						t.Error(err)
						return
					}
				default:
					if err := s.Put(ctx, k, []byte(fmt.Sprintf("p%d-%d", w, i))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	compDone := make(chan struct{})
	go func() {
		defer close(compDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.SealActive(); err != nil {
				t.Error(err)
				return
			}
			if err := s.Compact(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-compDone
	// Snapshot the live state, crash, and verify the replay matches.
	keysNow, err := s.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.BatchGet(ctx, keysNow)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	keysAfter, err := s.List(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(keysAfter) != len(keysNow) {
		t.Fatalf("replay key count %d != %d", len(keysAfter), len(keysNow))
	}
	got, err := s.BatchGet(ctx, keysAfter)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if string(got[k]) != string(v) {
			t.Fatalf("replay diverged at %q: %q != %q", k, got[k], v)
		}
	}
}

// appendUnsynced plants a record in the active segment WITHOUT waiting for
// its fsync — the in-flight state a concurrent writer occupies between its
// append and its durability ack.
func appendUnsynced(t *testing.T, s *Store, op byte, key, value string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var v []byte
	if op == opPut {
		v = []byte(value)
	}
	if err := s.appendLocked(op, key, v); err != nil {
		t.Fatal(err)
	}
}

// syncedUp reports whether the active segment has no pending bytes.
func syncedUp(s *Store) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.active.synced == s.active.size
}

// TestReadsObserveOnlyDurableState pins the durable-read contract: no
// operation may return (or acknowledge against) state that a Crash would
// erase. Unsynced appends are planted directly, as a concurrent writer
// would between append and ack.
func TestReadsObserveOnlyDurableState(t *testing.T) {
	ctx := context.Background()

	t.Run("Get syncs an in-flight record before returning it", func(t *testing.T) {
		s := openT(t, t.TempDir(), Options{})
		appendUnsynced(t, s, opPut, "fresh", "v1")
		wantGet(t, s, "fresh", "v1")
		if !syncedUp(s) {
			t.Fatal("Get returned a record the fsync window had not covered")
		}
		if err := s.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := s.Reopen(); err != nil {
			t.Fatal(err)
		}
		wantGet(t, s, "fresh", "v1") // observed once => survives the crash
	})

	t.Run("Get syncs an in-flight tombstone before reporting absence", func(t *testing.T) {
		s := openT(t, t.TempDir(), Options{})
		mustPut(t, s, "k", "old")
		appendUnsynced(t, s, opDelete, "k", "")
		wantMissing(t, s, "k")
		if !syncedUp(s) {
			t.Fatal("Get acknowledged an absence resting on an unsynced tombstone")
		}
		if err := s.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := s.Reopen(); err != nil {
			t.Fatal(err)
		}
		wantMissing(t, s, "k") // the observed absence must not un-happen
	})

	t.Run("List omits keys with no durable record", func(t *testing.T) {
		s := openT(t, t.TempDir(), Options{})
		mustPut(t, s, "settled", "v")
		appendUnsynced(t, s, opPut, "inflight", "v")
		keys, err := s.List(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 1 || keys[0] != "settled" {
			t.Fatalf("List = %v, want only the durable key", keys)
		}
		// An overwrite of a durably-established key stays listed.
		appendUnsynced(t, s, opPut, "settled", "v2")
		keys, err = s.List(ctx, "settled")
		if err != nil || len(keys) != 1 {
			t.Fatalf("List(settled) = %v, %v; durable key vanished mid-overwrite", keys, err)
		}
	})

	t.Run("Delete of an absent key waits out pending bytes", func(t *testing.T) {
		s := openT(t, t.TempDir(), Options{})
		mustPut(t, s, "k", "old")
		appendUnsynced(t, s, opDelete, "k", "")
		// The concurrent tombstone makes k absent; this delete appends
		// nothing but must still not ack ahead of the tombstone's fsync.
		if err := s.Delete(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		if !syncedUp(s) {
			t.Fatal("Delete acknowledged against an unsynced absence")
		}
		if err := s.Crash(); err != nil {
			t.Fatal(err)
		}
		if err := s.Reopen(); err != nil {
			t.Fatal(err)
		}
		wantMissing(t, s, "k")
	})

	t.Run("BatchGet syncs in-flight records", func(t *testing.T) {
		s := openT(t, t.TempDir(), Options{})
		mustPut(t, s, "a", "1")
		appendUnsynced(t, s, opPut, "b", "2")
		got, err := s.BatchGet(ctx, []string{"a", "b", "missing"})
		if err != nil || string(got["a"]) != "1" || string(got["b"]) != "2" {
			t.Fatalf("BatchGet = %v, %v", got, err)
		}
		if !syncedUp(s) {
			t.Fatal("BatchGet returned records the fsync window had not covered")
		}
	})
}

// TestListWaitsOutInFlightTombstone pins the absence direction of List's
// durability contract: a key omitted because of a tombstone still inside
// the fsync window must not resurface after a crash.
func TestListWaitsOutInFlightTombstone(t *testing.T) {
	ctx := context.Background()
	s := openT(t, t.TempDir(), Options{})
	mustPut(t, s, "k", "v")
	appendUnsynced(t, s, opDelete, "k", "")
	keys, err := s.List(ctx, "")
	if err != nil || len(keys) != 0 {
		t.Fatalf("List = %v, %v; want empty", keys, err)
	}
	if !syncedUp(s) {
		t.Fatal("List omitted a key on the strength of an unsynced tombstone")
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	wantMissing(t, s, "k") // the omission must not un-happen
}

// TestCompactionSyncsSupersederBeforeUnlink pins the compaction durability
// hazard: a sealed record dead only because an UNSYNCED active record
// superseded it must not have its file unlinked until the superseder is
// fsynced — otherwise a crash erases the superseder with its durable
// victim already gone, losing an acknowledged write.
func TestCompactionSyncsSupersederBeforeUnlink(t *testing.T) {
	ctx := context.Background()
	s := openT(t, t.TempDir(), Options{CompactGarbageBytes: noAutoCompact})
	mustPut(t, s, "k", "v1") // acknowledged: must survive any crash
	if err := s.SealActive(); err != nil {
		t.Fatal(err)
	}
	appendUnsynced(t, s, opPut, "k", "v2") // supersedes the sealed v1
	if err := s.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	// Either v2 was made durable before the sealed file vanished (the
	// fix), or — had compaction unlinked first — k would now be absent
	// and the acknowledged v1 lost.
	wantGet(t, s, "k", "v2")
}

// TestSyncWaitFailsAcrossCrashReopen pins the generation fence: a
// durability wait whose bytes were appended before a Crash must fail with
// ErrUnavailable even if a Reopen has already brought the engine back —
// the NEW generation's fsync covers a log in which those bytes were
// truncated, and acknowledging against it would un-happen on no crash at
// all.
func TestSyncWaitFailsAcrossCrashReopen(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	appendUnsynced(t, s, opPut, "k", "v")
	s.mu.RLock()
	gen := s.gen
	s.mu.RUnlock()
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	if err := s.requestSync(gen); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("cross-generation durability wait = %v, want ErrUnavailable", err)
	}
	wantMissing(t, s, "k")    // the truncated record must not resurface
	mustPut(t, s, "k2", "v2") // current-generation waits still succeed
	wantGet(t, s, "k2", "v2")
}
