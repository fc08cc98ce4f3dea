// Checkpointed recovery. Replay cost grows with the log, not with the
// live state: a long-lived engine pays O(history) on every reopen even
// when the index it rebuilds is tiny. A checkpoint bounds that cost by
// snapshotting the live key index — key, location, and the durable byte
// watermark of every segment — into a side file, so the next reopen loads
// the snapshot and replays only the bytes appended after it (the tail).
//
// On-disk format ("ckpt-<seq>.ckpt", big-endian, CRC32-C over everything
// between the magic and the trailing checksum):
//
//	magic "AFTWCKP1"
//	uint64 seq        checkpoint sequence number (newest valid wins)
//	uint64 nextLSN    the engine's LSN counter at snapshot time
//	uint32 nsegs      | nsegs × (int64 segID, int64 coveredBytes)
//	uint64 nentries   | nentries × (uint32 klen, key, int64 seg/off/flen/voff/vlen)
//	uint32 CRC32-C
//
// Write protocol: encode to "<name>.tmp", fsync the file, rename into
// place, fsync the directory. A crash mid-write leaves at worst a torn
// tmp file (ignored and removed on reopen) — the previous checkpoint
// stays authoritative because the rename is the commit point.
//
// Validity is decided at load time, which is what makes checkpointing
// safe to run concurrently with appends, compaction, and even crashes:
// a checkpoint is USED only if its CRC matches and every segment it
// covers still exists on disk with the covered bytes inside its written
// prefix. A checkpoint that references segments compaction has since
// unlinked is stale and rejected (full replay recovers from the compacted
// segment's copies); a torn or corrupt checkpoint is rejected by CRC. The
// file size alone does not bound the written prefix — a zero-filled
// segment is long before anything is written to it — so a segment longer
// than its covered range has its frames walked up to that range's end
// (coveredIsWritten). Rejection never loses data — the log remains the
// source of truth.
//
// Snapshot consistency: the snapshot is taken under the write lock after
// fsyncing the active segment, so every index entry in it is durable and
// coveredBytes == size for every segment. Any record outside the covered
// byte ranges was appended after the snapshot and therefore carries an
// LSN >= the snapshot's nextLSN; tail replay records always supersede
// checkpoint entries for the same key.
package walengine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"aft/internal/storage"
	"aft/internal/telemetry"
)

// ckptMagic identifies (and versions) the checkpoint file format.
const ckptMagic = "AFTWCKP1"

// ErrCheckpointInProgress is returned by Checkpoint when another
// checkpoint is already being written.
var ErrCheckpointInProgress = errors.New("walengine: checkpoint already in progress")

// CheckpointStats summarizes one written checkpoint.
type CheckpointStats struct {
	Seq      uint64 // sequence number of the written checkpoint
	Entries  int    // live index entries snapshotted
	Segments int    // segments covered
	Bytes    int64  // checkpoint file size
}

// ckptData is a decoded, validated checkpoint.
type ckptData struct {
	seq     uint64
	nextLSN uint64
	covered map[int64]int64 // segment id -> durable bytes at snapshot
	entries map[string]loc
}

// ckptPath returns the file path of checkpoint seq.
func (s *Store) ckptPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("ckpt-%016d.ckpt", seq))
}

// parseCkptSeq extracts the sequence number from a file name, reporting
// whether the name is a checkpoint file's.
func parseCkptSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "ckpt-"), ".ckpt"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// rejectCheckpoint journals one unusable checkpoint found at load time
// — the flight-recorder record of replay cost silently falling back to
// an older snapshot (or the full log).
func (s *Store) rejectCheckpoint(seq uint64, reason string) {
	s.cfg.Events.Record(telemetry.EventCheckpointRejected, s.cfg.EventNode, "",
		"seq", strconv.FormatUint(seq, 10), "reason", reason)
}

// Checkpoint snapshots the live key index and the durable watermark of
// every segment into a new checkpoint file, so the next Reopen replays
// only records appended after this call. It first fsyncs the active
// segment (briefly blocking appends) so the snapshot holds only durable
// state, then encodes and publishes the file outside the lock. Safe to
// run concurrently with appends and compaction; a checkpoint obsoleted
// by a concurrent compaction is simply rejected at the next load.
func (s *Store) Checkpoint(ctx context.Context) (CheckpointStats, error) {
	if err := ctx.Err(); err != nil {
		return CheckpointStats{}, err
	}
	if !s.ckptMu.TryLock() {
		return CheckpointStats{}, ErrCheckpointInProgress
	}
	defer s.ckptMu.Unlock()
	return s.checkpointLocked()
}

// checkpointLocked writes one checkpoint (see Checkpoint). Callers hold
// s.ckptMu.
func (s *Store) checkpointLocked() (CheckpointStats, error) {
	// Snapshot under the write lock: fsync the active segment so every
	// index entry is durable, then copy the index and per-segment durable
	// watermarks.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return CheckpointStats{}, storage.ErrUnavailable
	}
	if s.active.synced < s.active.size {
		if err := s.active.f.Sync(); err != nil {
			s.mu.Unlock()
			return CheckpointStats{}, fmt.Errorf("walengine: checkpoint fsync: %w", err)
		}
		s.wal.Fsyncs.Add(1)
		s.active.synced = s.active.size
	}
	seq := s.ckptSeq
	s.ckptSeq++
	ck := ckptData{
		seq:     seq,
		nextLSN: s.lsn,
		covered: make(map[int64]int64, len(s.segs)),
		entries: make(map[string]loc, len(s.index)),
	}
	for id, seg := range s.segs {
		ck.covered[id] = seg.synced
	}
	for k, l := range s.index {
		ck.entries[k] = l
	}
	appends := s.wal.Appends.Load()
	s.mu.Unlock()

	buf := encodeCheckpoint(ck)
	tmp := s.ckptPath(seq) + ".tmp"
	if err := s.publishCheckpoint(tmp, s.ckptPath(seq), buf); err != nil {
		os.Remove(tmp) // best effort; leftovers are ignored and swept on reopen
		return CheckpointStats{}, err
	}
	s.appendsAtCkpt.Store(appends)
	s.wal.Checkpoints.Add(1)
	s.wal.CheckpointEntries.Add(int64(len(ck.entries)))
	s.cfg.Events.Record(telemetry.EventCheckpointWritten, s.cfg.EventNode, "",
		"seq", strconv.FormatUint(seq, 10),
		"entries", strconv.Itoa(len(ck.entries)))
	s.lastCkptUnixNano.Store(time.Now().UnixNano())

	// Older checkpoints are obsolete; sweep them (best effort — an extra
	// valid checkpoint is harmless, the newest valid one wins).
	if names, err := os.ReadDir(s.dir); err == nil {
		for _, e := range names {
			if old, ok := parseCkptSeq(e.Name()); ok && old < seq {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	return CheckpointStats{Seq: seq, Entries: len(ck.entries), Segments: len(ck.covered), Bytes: int64(len(buf))}, nil
}

// publishCheckpoint writes buf to tmp, fsyncs it, calls the test hook,
// renames tmp into place, and fsyncs the directory. The rename is the
// commit point: a crash anywhere before it leaves the previous
// checkpoint authoritative.
func (s *Store) publishCheckpoint(tmp, final string, buf []byte) error {
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("walengine: checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("walengine: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("walengine: checkpoint fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("walengine: checkpoint close: %w", err)
	}
	if hook := s.ckptHook; hook != nil {
		// Crash-point hook (tests): fires between the durable tmp write
		// and the rename. Returning an error abandons the checkpoint as a
		// simulated crash would — the tmp file stays, the rename never
		// happens, and the previous checkpoint remains authoritative.
		if err := hook("pre-rename"); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("walengine: checkpoint publish: %w", err)
	}
	return s.syncDir()
}

// encodeCheckpoint serializes ck (format in the package comment above).
func encodeCheckpoint(ck ckptData) []byte {
	size := len(ckptMagic) + 8 + 8 + 4 + len(ck.covered)*16 + 8 + 4
	for k := range ck.entries {
		size += 4 + len(k) + 40
	}
	buf := make([]byte, 0, size)
	buf = append(buf, ckptMagic...)
	buf = binary.BigEndian.AppendUint64(buf, ck.seq)
	buf = binary.BigEndian.AppendUint64(buf, ck.nextLSN)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ck.covered)))
	ids := make([]int64, 0, len(ck.covered))
	for id := range ck.covered {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		buf = binary.BigEndian.AppendUint64(buf, uint64(id))
		buf = binary.BigEndian.AppendUint64(buf, uint64(ck.covered[id]))
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(ck.entries)))
	keys := make([]string, 0, len(ck.entries))
	for k := range ck.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		l := ck.entries[k]
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(k)))
		buf = append(buf, k...)
		buf = binary.BigEndian.AppendUint64(buf, uint64(l.seg))
		buf = binary.BigEndian.AppendUint64(buf, uint64(l.off))
		buf = binary.BigEndian.AppendUint64(buf, uint64(l.flen))
		buf = binary.BigEndian.AppendUint64(buf, uint64(l.voff))
		buf = binary.BigEndian.AppendUint64(buf, uint64(l.vlen))
	}
	crc := crc32.Checksum(buf[len(ckptMagic):], castagnoli)
	return binary.BigEndian.AppendUint32(buf, crc)
}

// decodeCheckpoint parses and CRC-verifies a checkpoint file. It accepts
// only the canonical encoding — segments and keys strictly ascending, as
// encodeCheckpoint writes them — so a decoded checkpoint re-encodes to the
// same bytes.
func decodeCheckpoint(data []byte) (ckptData, error) {
	var ck ckptData
	if len(data) < len(ckptMagic)+8+8+4+8+4 || string(data[:len(ckptMagic)]) != ckptMagic {
		return ck, errors.New("walengine: not a checkpoint file")
	}
	body := data[len(ckptMagic) : len(data)-4]
	crc := binary.BigEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != crc {
		return ck, errors.New("walengine: checkpoint CRC mismatch")
	}
	ck.seq = binary.BigEndian.Uint64(body)
	ck.nextLSN = binary.BigEndian.Uint64(body[8:])
	// Both counts come off disk unchecked; bound each by what the remaining
	// bytes can hold (16 per segment; 4-byte key length + 40-byte loc per
	// entry, zero-length key) before sizing a map by it.
	off := 20
	nsegs := binary.BigEndian.Uint32(body[16:])
	if uint64(nsegs) > uint64(len(body)-off)/16 {
		return ck, errors.New("walengine: checkpoint truncated")
	}
	ck.covered = make(map[int64]int64, nsegs)
	var prevID int64
	for i := uint32(0); i < nsegs; i++ {
		id := int64(binary.BigEndian.Uint64(body[off:]))
		if i > 0 && id <= prevID {
			return ck, errors.New("walengine: checkpoint segments out of order")
		}
		prevID = id
		ck.covered[id] = int64(binary.BigEndian.Uint64(body[off+8:]))
		off += 16
	}
	if len(body) < off+8 {
		return ck, errors.New("walengine: checkpoint truncated")
	}
	n := binary.BigEndian.Uint64(body[off:])
	off += 8
	if n > uint64(len(body)-off)/44 {
		return ck, errors.New("walengine: checkpoint truncated")
	}
	ck.entries = make(map[string]loc, n)
	var prevKey string
	for i := uint64(0); i < n; i++ {
		if len(body) < off+4 {
			return ck, errors.New("walengine: checkpoint truncated")
		}
		klen := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		if klen > len(body)-off-40 {
			return ck, errors.New("walengine: checkpoint truncated")
		}
		k := string(body[off : off+klen])
		if i > 0 && k <= prevKey {
			return ck, errors.New("walengine: checkpoint keys out of order")
		}
		prevKey = k
		off += klen
		l := loc{
			seg:  int64(binary.BigEndian.Uint64(body[off:])),
			off:  int64(binary.BigEndian.Uint64(body[off+8:])),
			flen: int64(binary.BigEndian.Uint64(body[off+16:])),
			voff: int64(binary.BigEndian.Uint64(body[off+24:])),
			vlen: int64(binary.BigEndian.Uint64(body[off+32:])),
		}
		off += 40
		ck.entries[k] = l
	}
	if off != len(body) {
		return ck, errors.New("walengine: checkpoint trailing garbage")
	}
	return ck, nil
}

// loadCheckpoint scans the directory for checkpoint files and returns the
// newest one that is valid against the segment files actually on disk
// (sizes maps segment id -> file size). Invalid candidates — torn or
// corrupt by CRC, stale because they reference segments compaction has
// since removed, or covering bytes past a segment's written prefix — are
// counted and skipped; nil means full replay. Leftover tmp files from
// interrupted writes are swept. Also returns the next checkpoint sequence
// number to use.
func (s *Store) loadCheckpoint(sizes map[int64]int64, fr *frameReader) (*ckptData, uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 1
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			if _, ok := parseCkptSeq(strings.TrimSuffix(name, ".tmp")); ok {
				os.Remove(filepath.Join(s.dir, name))
			}
			continue
		}
		if seq, ok := parseCkptSeq(name); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	var nextSeq uint64 = 1
	if len(seqs) > 0 {
		nextSeq = seqs[0] + 1
	}
	for _, seq := range seqs {
		data, err := os.ReadFile(s.ckptPath(seq))
		if err != nil {
			s.wal.CheckpointsRejected.Add(1)
			s.rejectCheckpoint(seq, "unreadable")
			continue
		}
		ck, err := decodeCheckpoint(data)
		if err != nil || ck.seq != seq {
			s.wal.CheckpointsRejected.Add(1)
			s.rejectCheckpoint(seq, "corrupt")
			continue
		}
		if !checkpointApplies(&ck, sizes) || !s.coveredIsWritten(&ck, sizes, fr) {
			s.wal.CheckpointsRejected.Add(1)
			s.rejectCheckpoint(seq, "inapplicable")
			continue
		}
		return &ck, nextSeq
	}
	return nil, nextSeq
}

// checkpointApplies reports whether ck is consistent with the segment
// files on disk: every covered segment must still exist with at least
// the covered bytes, and every entry must point inside a covered range.
// A compaction after the checkpoint unlinks covered segments, which is
// detected here as staleness.
func checkpointApplies(ck *ckptData, sizes map[int64]int64) bool {
	for id, covered := range ck.covered {
		size, ok := sizes[id]
		if !ok || size < covered {
			return false
		}
	}
	for _, l := range ck.entries {
		covered, ok := ck.covered[l.seg]
		if !ok || l.off < 0 || l.flen <= 0 || l.off+l.flen > covered {
			return false
		}
	}
	return true
}

// coveredIsWritten reports whether every range ck covers lies inside its
// segment's written prefix. A file no longer than its covered range holds
// nothing past it. In a longer one — appended to since, or zero-filled
// ahead of use — the frames from the end of the checkpoint's last record
// in it (the start of the file if it has none) must run unbroken to the
// covered offset: a range reaching into the zeros does not, however long
// the file. When that record ends the range, as it does when the newest
// write before the checkpoint is still live, there is nothing to read;
// otherwise the walk reads the dead frames after it, typically a few.
func (s *Store) coveredIsWritten(ck *ckptData, sizes map[int64]int64, fr *frameReader) bool {
	from := make(map[int64]int64, len(ck.covered))
	for _, l := range ck.entries {
		from[l.seg] = max(from[l.seg], l.off+l.flen)
	}
	for id, covered := range ck.covered {
		if sizes[id] <= covered || from[id] == covered {
			continue
		}
		f, err := os.Open(s.segPath(id))
		if err != nil {
			return false
		}
		fr.reset(f, from[id], covered)
		for fr.off < covered {
			if frame, _, err := fr.next(); frame == nil || err != nil {
				break
			}
		}
		f.Close()
		if fr.off != covered {
			return false
		}
	}
	return true
}

// maybeCheckpoint triggers a background checkpoint once CheckpointEvery
// appends have accumulated since the last one. Like maybeCompact it is
// called after acknowledged writes and gates on a CAS so at most one
// checkpoint runs at a time.
func (s *Store) maybeCheckpoint() {
	if s.cfg.CheckpointEvery <= 0 {
		return
	}
	if s.wal.Appends.Load()-s.appendsAtCkpt.Load() < s.cfg.CheckpointEvery {
		return
	}
	if !s.ckptMu.TryLock() {
		return // one is in flight
	}
	go func() {
		defer s.ckptMu.Unlock()
		// A failed checkpoint has no caller to report to; the next
		// reopen just replays a longer tail.
		_, _ = s.checkpointLocked()
	}()
}

// CheckpointAge returns the time since the last checkpoint this process
// wrote, and false if it has not written one.
func (s *Store) CheckpointAge() (time.Duration, bool) {
	at := s.lastCkptUnixNano.Load()
	if at == 0 {
		return 0, false
	}
	return time.Duration(time.Now().UnixNano() - at), true
}
