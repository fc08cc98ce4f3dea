package walengine

// compact.go rewrites the live records of every sealed segment into one
// fresh segment and removes the sealed files, reclaiming the space of
// overwritten and deleted versions. See the package comment for why the
// FULL sealed range is always rewritten at once (tombstone safety) and why
// a crash at any point leaves a correct log (copied records keep their
// original LSNs, so replay treats old/new duplicates idempotently), and
// for why a copied frame sheds its batch continuation bit.

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"strconv"

	"aft/internal/storage"
	"aft/internal/telemetry"
)

// maybeCompact triggers a background compaction when the sealed garbage
// exceeds the configured threshold; at most one run is in flight.
func (s *Store) maybeCompact() {
	s.mu.RLock()
	garbage := int64(0)
	if !s.closed {
		for _, seg := range s.segs {
			if seg != s.active {
				garbage += seg.size - seg.live
			}
		}
	}
	s.mu.RUnlock()
	if garbage < s.cfg.CompactGarbageBytes {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		// A compaction error here has no caller to report to; the log
		// stays correct (compaction is crash-safe at every step), only
		// unreclaimed. The next trigger retries.
		_ = s.Compact(context.Background())
	}()
}

// compactChunk is how many bytes of copied frames Compact gathers before
// writing them to the new segment.
const compactChunk = 64 << 10

// copied tracks one live entry through a compaction run.
type copied struct {
	key    string
	oldLoc loc
	newLoc loc
}

// Compact rewrites every sealed segment's live records into one new
// segment and deletes the sealed files. It runs concurrently with reads,
// appends, and deletes; entries that change mid-run simply keep their
// newer location and the stale copy becomes (small, idempotent) garbage in
// the new segment. Crash-safe at every step: the sealed files are removed
// only after the new segment is fully durable, and replay resolves the
// overlap by LSN.
func (s *Store) Compact(ctx context.Context) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Snapshot the sealed range and its live entries, ordered by file
	// position for sequential reads.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return storage.ErrUnavailable
	}
	sealed := make([]int64, 0, len(s.segs)-1)
	for id, seg := range s.segs {
		if seg != s.active {
			sealed = append(sealed, id)
		}
	}
	if len(sealed) == 0 {
		s.mu.Unlock()
		return nil
	}
	slices.Sort(sealed)
	// Sized for the whole index up front, so the snapshot is one
	// allocation however many entries it holds.
	entries := make([]copied, 0, len(s.index))
	for k, l := range s.index {
		if _, ok := slices.BinarySearch(sealed, l.seg); ok {
			entries = append(entries, copied{key: k, oldLoc: l})
		}
	}
	slices.SortFunc(entries, func(a, b copied) int {
		if c := cmp.Compare(a.oldLoc.seg, b.oldLoc.seg); c != 0 {
			return c
		}
		return cmp.Compare(a.oldLoc.off, b.oldLoc.off)
	})
	newID := s.next
	s.next++
	s.mu.Unlock()

	// Write the compacted segment outside the lock: raw frames are copied
	// byte-for-byte (same LSN; same CRC unless opMore had to be cleared —
	// see the package comment), so the new file is valid log the moment it
	// lands. Nothing references it until the index swap below.
	path := s.segPath(newID)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("walengine: compact: %w", err)
	}
	abort := func(err error) error {
		f.Close()
		os.Remove(path)
		return err
	}
	// Frames are read into buf one after another and written out whenever
	// the next one would not fit, so the copy allocates one buffer however
	// many entries it moves (a frame longer than the chunk grows it).
	buf := make([]byte, 0, compactChunk)
	size := int64(0)
	writeBuf := func() error {
		_, err := f.WriteAt(buf, size-int64(len(buf)))
		buf = buf[:0]
		return err
	}
	for i := range entries {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		e := &entries[i]
		flen := int(e.oldLoc.flen)
		if len(buf)+flen > cap(buf) && len(buf) > 0 {
			if err := writeBuf(); err != nil {
				return abort(fmt.Errorf("walengine: compact write: %w", err))
			}
		}
		off := len(buf)
		buf = slices.Grow(buf, flen)[:off+flen]
		frame := buf[off:]
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return abort(storage.ErrUnavailable)
		}
		// The sealed file still exists (only compaction removes sealed
		// segments, and this run is the only one); the entry itself may
		// have been superseded, which the swap below detects.
		_, rerr := s.segs[e.oldLoc.seg].f.ReadAt(frame, e.oldLoc.off)
		s.mu.RUnlock()
		if rerr != nil {
			return abort(fmt.Errorf("walengine: compact read: %w", rerr))
		}
		if body := frame[frameHeader:]; body[8]&opMore != 0 {
			body[8] &^= opMore
			binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
		}
		e.newLoc = loc{
			seg:  newID,
			off:  size,
			flen: e.oldLoc.flen,
			voff: size + (e.oldLoc.voff - e.oldLoc.off),
			vlen: e.oldLoc.vlen,
		}
		size += e.oldLoc.flen
	}
	if err := writeBuf(); err != nil {
		return abort(fmt.Errorf("walengine: compact write: %w", err))
	}
	if err := f.Sync(); err != nil {
		return abort(fmt.Errorf("walengine: compact fsync: %w", err))
	}
	if err := s.syncDir(); err != nil {
		return abort(fmt.Errorf("walengine: compact dir sync: %w", err))
	}

	// Swap: register the new segment, repoint every entry that still
	// lives at its snapshot location, and unlink the sealed range.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return abort(storage.ErrUnavailable)
	}
	newSeg := &segment{id: newID, f: f, size: size, synced: size}
	s.segs[newID] = newSeg
	for _, e := range entries {
		if cur, ok := s.index[e.key]; ok && cur == e.oldLoc {
			s.index[e.key] = e.newLoc
			s.segs[e.oldLoc.seg].live -= e.oldLoc.flen
			newSeg.live += e.newLoc.flen
		}
	}
	removed := make([]*segment, 0, len(sealed))
	for _, id := range sealed {
		seg := s.segs[id]
		if seg.live != 0 {
			// Defensive: nothing should still point here (concurrent
			// writes land in the active segment, swapped entries moved);
			// keep the file rather than risk a dangling read.
			continue
		}
		delete(s.segs, id)
		removed = append(removed, seg)
	}
	gen := s.gen
	s.mu.Unlock()

	// A sealed record may be dead only because an ACTIVE-segment record
	// superseded it — and that superseder may still be inside the group-
	// fsync window. Unlinking the sealed file first would let a crash
	// truncate the unsynced superseder with its durable victim already
	// gone: an acknowledged write lost. Make the active segment durable
	// through every supersession observed above before removing anything;
	// if the sync fails (e.g. a crash raced in), leave the files — replay
	// resolves the old/new overlap by LSN.
	if err := s.requestSync(gen); err != nil {
		return err
	}

	reclaimed := int64(0)
	for _, seg := range removed {
		seg.f.Close()
		if err := os.Remove(s.segPath(seg.id)); err != nil {
			return fmt.Errorf("walengine: compact remove: %w", err)
		}
		reclaimed += seg.size
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	s.wal.Compactions.Add(1)
	s.wal.CompactedSegments.Add(int64(len(removed)))
	s.cfg.Events.Record(telemetry.EventCompaction, s.cfg.EventNode, "",
		"segments", strconv.Itoa(len(removed)),
		"reclaimed_bytes", strconv.FormatInt(reclaimed, 10))
	if freed := reclaimed - size; freed > 0 {
		s.wal.BytesReclaimed.Add(freed)
	}
	return nil
}
