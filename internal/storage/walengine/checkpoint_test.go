package walengine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// ckptFiles returns the checkpoint file names currently in dir.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if _, ok := parseCkptSeq(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestCheckpointRecoveryIsTailOnly verifies the core contract: a reopen
// after a checkpoint restores the index from the snapshot and replays only
// the records appended after it.
func TestCheckpointRecoveryIsTailOnly(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: 4 << 10})

	const base, tail = 500, 25
	for i := 0; i < base; i++ {
		mustPut(t, s, fmt.Sprintf("k%03d", i%100), fmt.Sprintf("v%d", i))
	}
	if err := s.Delete(ctx, "k001"); err != nil {
		t.Fatal(err)
	}
	st, err := s.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 99 {
		t.Fatalf("checkpoint entries = %d, want 99", st.Entries)
	}
	for i := 0; i < tail; i++ {
		mustPut(t, s, fmt.Sprintf("t%03d", i), "tail")
	}
	if err := s.Delete(ctx, "k002"); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	replayedBefore := s.WAL().ReplayedRecords.Load()
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	replayed := s.WAL().ReplayedRecords.Load() - replayedBefore
	if replayed != tail+1 {
		t.Fatalf("replayed %d records after checkpointed reopen, want %d", replayed, tail+1)
	}
	if got := s.WAL().ReplayedTailRecords.Load(); got != tail+1 {
		t.Fatalf("ReplayedTailRecords = %d, want %d", got, tail+1)
	}
	if got := s.WAL().CheckpointRestored.Load(); got != 99 {
		t.Fatalf("CheckpointRestored = %d, want 99", got)
	}
	// State: checkpoint entries, tail overwrites, and both deletes.
	wantGet(t, s, "k000", "v400")
	wantGet(t, s, "t024", "tail")
	wantMissing(t, s, "k001") // deleted before the checkpoint
	wantMissing(t, s, "k002") // deleted after the checkpoint (tail tombstone wins)
	// New appends must keep superseding restored records across another cycle.
	mustPut(t, s, "k000", "newer")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	wantGet(t, s, "k000", "newer")
}

// TestCheckpointCrashMidWriteLeavesOldAuthoritative simulates a crash
// between the durable tmp write and the rename: the new checkpoint never
// commits, the previous one stays authoritative, and the leftover tmp
// file is swept on reopen.
func TestCheckpointCrashMidWriteLeavesOldAuthoritative(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	mustPut(t, s, "a", "1")
	if _, err := s.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "b", "2")

	crashed := errors.New("simulated crash before rename")
	s.ckptHook = func(stage string) error {
		if stage == "pre-rename" {
			return crashed
		}
		return nil
	}
	if _, err := s.Checkpoint(ctx); !errors.Is(err, crashed) {
		t.Fatalf("Checkpoint = %v, want simulated crash", err)
	}
	s.ckptHook = nil

	if files := ckptFiles(t, dir); len(files) != 1 || !strings.Contains(files[0], "ckpt-") {
		t.Fatalf("checkpoint files after aborted write = %v, want the original only", files)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	// The old checkpoint covers "a"; "b" replays from the tail.
	wantGet(t, s, "a", "1")
	wantGet(t, s, "b", "2")
	if got := s.WAL().CheckpointRestored.Load(); got != 1 {
		t.Fatalf("CheckpointRestored = %d, want 1 (the pre-crash checkpoint)", got)
	}
	for _, e := range ckptFiles(t, dir) {
		if strings.HasSuffix(e, ".tmp") {
			t.Fatalf("leftover tmp file survived reopen: %s", e)
		}
	}
}

// TestTornCheckpointFallsBackToFullReplay corrupts the checkpoint file
// and expects a CRC rejection with a full, state-preserving replay.
func TestTornCheckpointFallsBackToFullReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 50; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i), "v")
	}
	if _, err := s.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files := ckptFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("checkpoint files = %v, want one", files)
	}
	path := filepath.Join(dir, files[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	if got := s.WAL().CheckpointsRejected.Load(); got == 0 {
		t.Fatal("corrupt checkpoint was not rejected")
	}
	if got := s.WAL().CheckpointRestored.Load(); got != 0 {
		t.Fatalf("CheckpointRestored = %d after corrupt checkpoint, want 0", got)
	}
	for i := 0; i < 50; i++ {
		wantGet(t, s, fmt.Sprintf("k%02d", i), "v")
	}
}

// TestHostileCheckpointCountAllocatesNothing pins the bound on the entry
// count read off disk: a 40-byte, CRC-valid checkpoint claiming 2^26
// entries and holding none is rejected before anything is sized by the
// claim (it used to cost Open 9 GB and over a minute).
func TestHostileCheckpointCountAllocatesNothing(t *testing.T) {
	body := make([]byte, 28) // seq 0, nextLSN 0, no segments
	binary.BigEndian.PutUint64(body[20:], 1<<26)
	file := sealCheckpoint(body)
	if len(file) != 40 {
		t.Fatalf("file is %d bytes, want 40", len(file))
	}
	var err error
	got := allocatedDuring(func() { _, err = decodeCheckpoint(file) })
	if err == nil {
		t.Fatal("checkpoint claiming 2^26 entries in 40 bytes decoded without error")
	}
	if got >= 1<<20 {
		t.Fatalf("rejecting it allocated %d bytes, want < 1 MB", got)
	}
}

// TestStaleCheckpointAfterCompactionRejected: compaction unlinks segments
// a checkpoint references; the checkpoint must be rejected as stale and
// full replay must recover the state from the compacted segment.
func TestStaleCheckpointAfterCompactionRejected(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: 1 << 10, CompactGarbageBytes: noAutoCompact})
	for i := 0; i < 200; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i%20), fmt.Sprintf("v%d", i))
	}
	if _, err := s.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	// Rewrite the sealed range: the covered segments disappear.
	if err := s.SealActive(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rejBefore := s.WAL().CheckpointsRejected.Load()
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	if got := s.WAL().CheckpointsRejected.Load(); got == rejBefore {
		t.Fatal("stale checkpoint (compacted-away segments) was not rejected")
	}
	for i := 0; i < 20; i++ {
		wantGet(t, s, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", 180+i))
	}
}

// TestCheckpointOnCloseMakesCleanRestartReplayFree: with CheckpointEvery
// set, Close writes a final checkpoint and the next reopen replays
// nothing.
func TestCheckpointOnCloseMakesCleanRestartReplayFree(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CheckpointEvery: 1 << 30})
	for i := 0; i < 100; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i), "v")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := s.WAL().ReplayedRecords.Load()
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	if got := s.WAL().ReplayedRecords.Load() - before; got != 0 {
		t.Fatalf("replayed %d records after clean checkpointed close, want 0", got)
	}
	wantGet(t, s, "k42", "v")
}

// TestAutoCheckpointTriggers: the CheckpointEvery threshold fires a
// background checkpoint without an explicit call.
func TestAutoCheckpointTriggers(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CheckpointEvery: 10})
	for i := 0; i < 200 && s.WAL().Checkpoints.Load() == 0; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i%10), "v")
	}
	// The trigger is asynchronous; Close (CheckpointEvery > 0) then joins
	// or writes one more, so at least one checkpoint must exist after it.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.WAL().Checkpoints.Load(); got == 0 {
		t.Fatal("no checkpoint written despite CheckpointEvery")
	}
	if len(ckptFiles(t, dir)) == 0 {
		t.Fatal("no checkpoint file on disk")
	}
}

// TestCloseJoinsCheckpointInFlight: Close waits for a checkpoint already
// being written, then writes its own, instead of closing the log under it.
// The first checkpoint is held before its rename until Close has had ample
// time to return on its own.
func TestCloseJoinsCheckpointInFlight(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CheckpointEvery: 1 << 30})
	mustPut(t, s, "k", "v")
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.ckptHook = func(stage string) error {
		once.Do(func() {
			close(held)
			<-release
		})
		return nil
	}
	first := make(chan error, 1)
	go func() {
		_, err := s.Checkpoint(context.Background())
		first <- err
	}()
	await(t, held, "the first checkpoint")
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a checkpoint was still being written", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("the checkpoint Close joined: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := s.WAL().Checkpoints.Load(); got != 2 {
		t.Fatalf("Checkpoints = %d, want 2 (the one joined and Close's own)", got)
	}
	if files := ckptFiles(t, dir); len(files) != 1 {
		t.Fatalf("checkpoint files after Close = %v, want Close's own only", files)
	}
}

// TestCheckpointEmptyAndDeleteOnly covers degenerate snapshots: an empty
// index and a checkpoint taken after every key was deleted.
func TestCheckpointEmptyAndDeleteOnly(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	if _, err := s.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, "a", "1")
	if err := s.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	wantMissing(t, s, "a")
	mustPut(t, s, "a", "2")
	wantGet(t, s, "a", "2")
}

// copyDir copies every file of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCheckpointIntoZeroTailRejected: a zero-filled segment is long before
// anything is written to it, so its size cannot vouch for a checkpoint's
// covered range. A checkpoint taken over a preallocated active segment
// restores after a crash that left the zeros; the same checkpoint with the
// range stretched into the zeros is rejected, and the log replays in full.
func TestCheckpointIntoZeroTailRejected(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := openT(t, dir, Options{SegmentBytes: spareSegBytes, CompactGarbageBytes: noAutoCompact})
	acked := map[string]string{}
	i := putValues(t, s, "k", 0, acked, func() bool { return activePreallocated(s) })
	putValues(t, s, "k", i, acked, func() bool { return len(acked) >= i+2 })
	if err := s.Delete(ctx, "k0000"); err != nil { // the checkpoint's last frame holds no live record
		t.Fatal(err)
	}
	delete(acked, "k0000")
	if _, err := s.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	active := s.active.id
	if err := s.Crash(); err != nil {
		t.Fatal(err)
	}
	forged := copyDir(t, dir)

	if err := s.Reopen(); err != nil {
		t.Fatal(err)
	}
	if m := s.WAL().Snapshot(); m.CheckpointsRejected != 0 || m.CheckpointRestored != int64(len(acked)) {
		t.Fatalf("honest checkpoint: rejected %d, restored %d entries; want 0 and %d", m.CheckpointsRejected, m.CheckpointRestored, len(acked))
	}
	wantState(t, s, acked)

	files := ckptFiles(t, forged)
	if len(files) != 1 {
		t.Fatalf("checkpoint files = %v, want one", files)
	}
	path := filepath.Join(forged, files[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	ck.covered[active] += 64
	if err := os.WriteFile(path, encodeCheckpoint(ck), 0o644); err != nil {
		t.Fatal(err)
	}
	c := openT(t, forged, Options{SegmentBytes: spareSegBytes, CompactGarbageBytes: noAutoCompact})
	m := c.WAL().Snapshot()
	if m.CheckpointsRejected != 1 || m.CheckpointRestored != 0 {
		t.Fatalf("checkpoint covering zeros: rejected %d, restored %d entries; want 1 and 0", m.CheckpointsRejected, m.CheckpointRestored)
	}
	if want := int64(len(acked) + 2); m.ReplayedRecords != want {
		t.Fatalf("replayed %d records, want the full log's %d", m.ReplayedRecords, want)
	}
	wantState(t, c, acked)
}
