// Package walengine is the repository's first genuinely durable storage
// engine: a disk-backed storage.Store built on a segmented append-only
// write-ahead log. Every simulated engine (kvengine's DynamoDB, S3 and Redis)
// keeps its state in process memory and silently violates the durability
// premise AFT is built on — "once a write is acknowledged, it survives"
// (§3.1 of the paper) — the moment the process dies. This engine keeps the
// premise for real: a Put or BatchPut is acknowledged only after its log
// records are fsynced, and reopening the directory replays the log back to
// exactly the acknowledged state.
//
// On-disk format. The log is a directory of segment files
// ("wal-<id>.seg"). Each segment is a sequence of framed records:
//
//	uint32 body length | uint32 CRC32-C of body | body
//	body = uint64 LSN | uint8 op | uint32 key length | key | value
//	op   = put (1) or delete (2), plus the continuation bit 0x80 on every
//	       frame of a BatchPut but its last
//
// The continuation bit sits inside the CRC'd body, so a bit flip cannot
// open or close a batch unnoticed. Logs written before the bit existed
// carry it nowhere and replay as they always did: every frame a batch of
// one. After the last frame a segment may hold zeros up to SegmentBytes;
// no frame starts with a zero length, so they end the log (see "Torn
// tails").
//
// Every record carries a monotonically increasing log sequence number, and
// replay applies records by MAX LSN PER KEY rather than by file position.
// That one choice makes recovery order-independent: segments can be read
// in any order, a compacted segment can coexist with the segments it
// replaces (records copied by compaction keep their original LSNs, so
// duplicates are idempotent), and a crash at ANY point of a compaction
// leaves a directory that replays to the same state.
//
// Torn tails. A crash can tear the final frame of the segment being
// appended (and a crash mid-compaction can tear the compacted segment).
// On reopen, the first short or CRC-failing frame in a segment marks the
// torn tail: the file is truncated back to its last valid frame and replay
// continues with the next segment. Only unacknowledged bytes can be torn —
// acknowledged writes were fsynced behind the frame boundary.
//
// A segment may end in zeros, and that is the end of the log, not a tear.
// A roll moves appends into a segment created ahead of use and filled with
// zeros to SegmentBytes (spare.go), so the active segment is, from its
// first roll on, a written prefix followed by zeroed blocks. Replay reads in bounded chunks
// and stops at the first frame header of eight zero bytes — no frame has
// one — without reading the rest; it truncates the zeros but counts them
// in neither TornRecords nor TornBytes. A batch left open by the zeros, and
// bytes that are not zero, are torn as above. A roll trims the segment it
// seals, and Close the active one, to their written bytes, so sealed
// segments cost on disk and in replay what they hold.
//
// Atomic batches. A BatchPut survives a crash whole or not at all
// (Capabilities().AtomicBatches), which is what lets AFT write a
// transaction's data and its commit record in one call. Three rules make
// it so. The writer frames the whole batch into one buffer, lands it with
// one write, and rolls the segment only BEFORE a batch, never inside one —
// a roll fsyncs what it seals, and would make the first half durable alone.
// Replay applies a batch only once the frame that closes it has verified,
// and moves the valid-prefix mark only at batch boundaries, so a batch torn
// anywhere — or cut off between two intact frames — is truncated whole by
// the torn-tail rule above (counted in TornBatches). And reads return only
// fsync-covered records, where one fsync covers the one write: no reader
// sees part of a batch before a crash either. Deletes claim none of this;
// a BatchDelete's tombstones are independent frames.
//
// Group fsync. Concurrent writers share fsyncs, and this is the one place
// in the write path where separate callers' writes coalesce (the node
// runs each commit's writes on their own). Fsyncs run in numbered rounds,
// one at a time: an appender waits for the first round that begins after
// its append, and runs it itself if no round is running, so one File.Sync
// acknowledges every append that arrived while the round before it ran.
// The wait allocates nothing (syncRounds). AppendsPerFsync is the
// coalescing evidence, surfaced through the engine's WAL metrics, and
// aft_wal_fsync_seconds the time of each round's sync. An append into a
// zero-filled segment overwrites blocks that are already allocated, so the
// fsync covering it changes no file size and commits no file-system
// journal transaction: it writes the data and does not wait on other
// files' dirty pages (compaction's output among them).
//
// Reads observe only durable state. A record (or a tombstone-produced
// absence) still inside the group-fsync window is state a crash would
// erase, so Get/BatchGet wait out a coalesced sync before returning it,
// List reports only keys established by fsync-covered records, and a
// delete acknowledged against an in-flight tombstone's absence waits for
// the covering fsync. Nothing an operation returns can be un-happened by
// a Crash.
//
// Compaction rewrites the live records of every sealed segment into one
// fresh segment and deletes the sealed segments, reclaiming the space of
// overwritten and deleted versions (the storage-side complement of AFT's
// global GC, whose BatchDelete retires superseded versions through the
// same append path as any other delete). Compacting the full sealed range
// at once is what makes tombstones droppable: a delete record only needs
// to survive while an older put of its key survives, and after a full
// rewrite no sealed put outlives it. A frame copied out of a batch has its
// continuation bit cleared and its CRC recomputed: its batch-mates may be
// dead and stay behind, so left set the bit would splice it to whatever
// frame compaction happened to copy next — or, at the end of the segment,
// get it dropped as an unterminated batch. Clearing it loses nothing: a
// sealed segment was fsynced whole, so the batch's all-or-nothing moment
// has passed.
package walengine

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aft/internal/storage"
	"aft/internal/telemetry"
)

// Record ops, and the continuation bit a BatchPut sets in the op byte of
// every frame but its last.
const (
	opPut    = 1
	opDelete = 2
	opMore   = 0x80
)

// frameHeader is the fixed per-record prefix: body length + CRC32-C.
const frameHeader = 8

// bodyHeader is the fixed body prefix: LSN + op + key length.
const bodyHeader = 13

// castagnoli is the CRC32-C table (the polynomial with hardware support on
// both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures the engine.
type Options struct {
	// SegmentBytes seals the active segment once it exceeds this size;
	// 0 defaults to 4 MiB.
	SegmentBytes int64
	// CompactGarbageBytes is the sealed-garbage threshold that triggers a
	// background compaction; 0 defaults to 1 MiB. Compact can be called
	// explicitly too: a deterministic campaign passes a threshold no run
	// reaches and compacts at its own maintenance points.
	CompactGarbageBytes int64
	// CheckpointEvery triggers a background checkpoint (checkpoint.go)
	// once this many appends have accumulated since the last one, and
	// makes Close write a final checkpoint so a clean restart replays
	// nothing. 0 disables automatic checkpoints; Checkpoint can still be
	// called explicitly (deterministic campaigns checkpoint at explicit
	// maintenance points).
	CheckpointEvery int64
	// Events, when non-nil, journals checkpoint writes/rejections and
	// segment compactions into the flight recorder, labeled EventNode.
	// Passed through Options (not a setter) so rejections during the
	// initial load are captured too.
	Events *telemetry.Journal
	// EventNode labels this store's journal events (typically the
	// serving node's ID or the WAL directory).
	EventNode string
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactGarbageBytes <= 0 {
		o.CompactGarbageBytes = 1 << 20
	}
	return o
}

// Metrics counts WAL-specific activity (the storage.Metrics operation
// counters are kept separately, like every other engine).
type Metrics struct {
	Appends           atomic.Int64 // records appended to the log
	Fsyncs            atomic.Int64 // File.Sync calls on the active segment
	SegmentRolls      atomic.Int64 // active-segment seals
	Compactions       atomic.Int64 // completed compaction runs
	CompactedSegments atomic.Int64 // sealed segments rewritten and removed
	BytesReclaimed    atomic.Int64 // bytes freed by compaction
	TornRecords       atomic.Int64 // torn tail frames truncated on reopen
	TornBytes         atomic.Int64 // bytes truncated from torn tails
	TornBatches       atomic.Int64 // unterminated batches dropped whole on reopen
	ReplayedRecords   atomic.Int64 // records read back during reopen
	// Checkpoint counters (checkpoint.go). ReplayedTailRecords counts
	// records replayed past a checkpoint's covered ranges — the O(tail)
	// evidence; on a reopen without a usable checkpoint it stays flat and
	// ReplayedRecords carries the full-replay cost.
	Checkpoints         atomic.Int64 // checkpoint files written
	CheckpointsRejected atomic.Int64 // torn/stale checkpoints skipped at reopen
	CheckpointEntries   atomic.Int64 // index entries written into checkpoints
	CheckpointRestored  atomic.Int64 // index entries restored from checkpoints at reopen
	ReplayedTailRecords atomic.Int64 // records replayed past a checkpoint at reopen
}

// MetricsSnapshot is a point-in-time copy of Metrics, plus the derived
// coalescing ratio.
type MetricsSnapshot struct {
	Appends             int64   `json:"appends"`
	Fsyncs              int64   `json:"fsyncs"`
	AppendsPerFsync     float64 `json:"appends_per_fsync"`
	SegmentRolls        int64   `json:"segment_rolls"`
	Compactions         int64   `json:"compactions"`
	CompactedSegments   int64   `json:"compacted_segments"`
	BytesReclaimed      int64   `json:"bytes_reclaimed"`
	TornRecords         int64   `json:"torn_records"`
	TornBytes           int64   `json:"torn_bytes"`
	TornBatches         int64   `json:"torn_batches"`
	ReplayedRecords     int64   `json:"replayed_records"`
	Checkpoints         int64   `json:"checkpoints"`
	CheckpointsRejected int64   `json:"checkpoints_rejected"`
	CheckpointEntries   int64   `json:"checkpoint_entries"`
	CheckpointRestored  int64   `json:"checkpoint_restored"`
	ReplayedTailRecords int64   `json:"replayed_tail_records"`
}

// Snapshot returns the current counter values.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Appends:           m.Appends.Load(),
		Fsyncs:            m.Fsyncs.Load(),
		SegmentRolls:      m.SegmentRolls.Load(),
		Compactions:       m.Compactions.Load(),
		CompactedSegments: m.CompactedSegments.Load(),
		BytesReclaimed:    m.BytesReclaimed.Load(),
		TornRecords:       m.TornRecords.Load(),
		TornBytes:         m.TornBytes.Load(),
		TornBatches:       m.TornBatches.Load(),
		ReplayedRecords:   m.ReplayedRecords.Load(),

		Checkpoints:         m.Checkpoints.Load(),
		CheckpointsRejected: m.CheckpointsRejected.Load(),
		CheckpointEntries:   m.CheckpointEntries.Load(),
		CheckpointRestored:  m.CheckpointRestored.Load(),
		ReplayedTailRecords: m.ReplayedTailRecords.Load(),
	}
	if s.Fsyncs > 0 {
		s.AppendsPerFsync = float64(s.Appends) / float64(s.Fsyncs)
	}
	return s
}

// loc locates one live record: the frame (for compaction copies) and the
// value bytes within it (for reads).
type loc struct {
	seg  int64 // owning segment id
	off  int64 // frame start offset in the segment file
	flen int64 // full frame length (header + body)
	voff int64 // value offset in the segment file
	vlen int64 // value length (0 for empty values)
	// hadDurable records that some EARLIER version of this key was
	// already fsync-covered when this record overwrote it: the key
	// durably exists even while this record is still inside the group-
	// fsync window, so List may include it without waiting.
	hadDurable bool
}

// segment is one log file.
type segment struct {
	id     int64
	f      *os.File
	size   int64 // bytes appended
	synced int64 // bytes known durable (== size for sealed segments)
	live   int64 // frame bytes the index currently points into
	// tombEnd is the end offset of the newest tombstone frame: while it
	// exceeds synced, some observed ABSENCE rests on bytes a crash would
	// erase, and absence-acknowledging paths must wait out a sync.
	tombEnd int64
	// prealloc is the length the file was zero-filled to before its first
	// append (SegmentBytes for a spare, 0 for a file its appends grow).
	prealloc int64
}

// Store is a disk-backed storage.Store over the write-ahead log. It is
// safe for concurrent use. Crash simulates a process crash (unsynced
// appends are discarded), Reopen replays the directory.
type Store struct {
	dir string
	cfg Options

	// mu guards the segment table, the active segment's file offsets, and
	// the key index. Appends and index mutations take the write lock;
	// reads (index lookup + pread) take the read lock, which also protects
	// a segment file from being removed by compaction mid-read.
	mu     sync.RWMutex
	segs   map[int64]*segment
	active *segment
	next   int64 // next segment id
	lsn    uint64
	index  map[string]loc
	closed bool
	// gen counts log generations: every (re)load increments it. A
	// durability wait is honored only within the generation it was
	// requested in — a Crash immediately followed by Reopen must not let
	// a waiter whose bytes the crash truncated be acknowledged against
	// the fresh generation's fsync.
	gen uint64
	// buf and staged hold the frames of the append call in progress
	// (beginLocked/stageLocked/landLocked), and keys a BatchPut's keys in
	// the order it frames them; they are reused from one call to the next
	// so neither a batch nor a point Put allocates its frames.
	buf    []byte
	staged []staged
	keys   []string

	sy syncRounds
	// syncHook, when set (tests only, before any concurrent use), runs at
	// the start of every fsync round with the round's number; an error
	// fails the round in place of the fsync.
	syncHook func(round uint64) error
	// fsyncTime observes each round's File.Sync.
	fsyncTime *telemetry.Histogram

	// spare (guarded by mu) is the next active segment, prepared in the
	// background once the active one passes half of SegmentBytes
	// (spare.go). spareHook, when set (tests only, before any concurrent
	// use), runs in the preparing goroutine once the file exists; an error
	// fails the preparation.
	spare     *spare
	spareHook func() error

	// compactMu serializes compaction runs; compacting gates the
	// auto-trigger so at most one background run is in flight.
	compactMu  sync.Mutex
	compacting atomic.Bool

	// Checkpoint state (checkpoint.go): ckptSeq (guarded by mu) is the
	// next checkpoint sequence number; ckptMu is held by the checkpoint
	// being written, so at most one is in flight and Close can join it;
	// appendsAtCkpt drives the CheckpointEvery auto-trigger;
	// lastCkptUnixNano feeds the age gauge.
	ckptSeq          uint64
	ckptMu           sync.Mutex
	appendsAtCkpt    atomic.Int64
	lastCkptUnixNano atomic.Int64
	// ckptHook, when set (tests only, before any concurrent use), fires
	// at named stages of the checkpoint write protocol to simulate
	// crashes mid-checkpoint.
	ckptHook func(stage string) error

	metrics storage.Metrics
	wal     Metrics
}

var _ storage.Store = (*Store)(nil)

// fsyncBuckets lays out aft_wal_fsync_seconds: doubling from 16 µs, since
// a sync of overwritten blocks takes tens of microseconds and one that
// commits the journal can take milliseconds.
var fsyncBuckets = telemetry.LogBuckets(16*time.Microsecond, time.Second, 2)

// Open replays the write-ahead log in dir (created if absent) and starts a
// fresh active segment for new appends.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, cfg: opts.withDefaults(), fsyncTime: telemetry.NewHistogram(fsyncBuckets)}
	s.sy.cond.L = &s.sy.mu
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("walengine: %w", err)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// Name implements storage.Store.
func (s *Store) Name() string { return "wal" }

// Capabilities implements storage.Store: a batch is one write of
// consecutive log records sharing one fsync, so there is no item limit, and
// replay applies it whole or not at all (see "Atomic batches" in the
// package comment).
func (s *Store) Capabilities() storage.Capabilities {
	return storage.Capabilities{BatchWrites: true, AtomicBatches: true}
}

// Metrics returns the standard storage operation counters.
func (s *Store) Metrics() *storage.Metrics { return &s.metrics }

// WAL returns the engine's log-specific counters (appends, fsyncs,
// compaction work, torn-tail truncations).
func (s *Store) WAL() *Metrics { return &s.wal }

// Dir returns the log directory.
func (s *Store) Dir() string { return s.dir }

// segPath returns the file path of segment id.
func (s *Store) segPath(id int64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%016d.seg", id))
}

// parseSegID extracts the segment id from a file name, reporting whether
// the name is a segment file's.
func parseSegID(name string) (int64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	id, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// syncDir fsyncs the log directory so segment creates and removes survive
// a crash.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// replayEntry is one key's winning record during replay.
type replayEntry struct {
	lsn uint64
	put bool
	l   loc
}

// load scans the directory, replays every segment (truncating torn
// tails), rebuilds the key index by max LSN per key, and opens a fresh
// active segment. When a valid checkpoint is present the index is seeded
// from it and only bytes past each segment's covered watermark are
// replayed — recovery proportional to the tail, not the log. Callers
// hold no locks (Open) or s.mu (Reopen).
func (s *Store) load() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("walengine: %w", err)
	}
	var ids []int64
	sizes := make(map[int64]int64)
	for _, e := range entries {
		if id, ok := parseSegID(e.Name()); ok {
			ids = append(ids, id)
			if info, err := e.Info(); err == nil {
				sizes[id] = info.Size()
			}
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	fr := &frameReader{}
	ck, nextSeq := s.loadCheckpoint(sizes, fr)
	s.ckptSeq = nextSeq

	segs := make(map[int64]*segment, len(ids)+1)
	winners := make(map[string]replayEntry)
	if ck != nil {
		// Checkpoint entries enter with LSN 0: every record outside the
		// covered ranges was appended after the snapshot (the snapshot
		// holds only fsynced state), so any tail record for the same key
		// must win the max-LSN merge.
		for k, l := range ck.entries {
			winners[k] = replayEntry{put: true, l: l}
		}
		s.wal.CheckpointRestored.Add(int64(len(ck.entries)))
	}
	var next int64 = 1
	var lsn uint64
	for _, id := range ids {
		var start int64
		if ck != nil {
			start = ck.covered[id] // 0 for segments created after the checkpoint
		}
		seg, err := s.replaySegment(fr, id, start, winners, ck != nil)
		if err != nil {
			for _, sg := range segs {
				sg.f.Close()
			}
			return err
		}
		segs[id] = seg
		if id >= next {
			next = id + 1
		}
	}
	for _, w := range winners {
		if w.lsn > lsn {
			lsn = w.lsn
		}
	}
	index := make(map[string]loc, len(winners))
	for k, w := range winners {
		if w.put {
			index[k] = w.l
			segs[w.l.seg].live += w.l.flen
		}
	}

	// A fresh active segment: restart appends on a clean file instead of
	// extending the last one (the classic rotate-on-recovery shape).
	f, err := os.OpenFile(s.segPath(next), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		for _, sg := range segs {
			sg.f.Close()
		}
		return fmt.Errorf("walengine: %w", err)
	}
	active := &segment{id: next, f: f}
	segs[next] = active
	s.segs = segs
	s.active = active
	s.next = next + 1
	s.lsn = lsn + 1
	if ck != nil && ck.nextLSN > s.lsn {
		// Checkpoint entries carry LSN 0 in the merge; restore the real
		// counter so new appends keep superseding restored records.
		s.lsn = ck.nextLSN
	}
	s.index = index
	s.closed = false
	s.gen++
	s.appendsAtCkpt.Store(s.wal.Appends.Load())
	return s.syncDir()
}

// replayChunk bounds how many bytes of a segment replay reads at a time.
const replayChunk = 256 << 10

// frameReader walks a segment's frames in file order through one bounded
// buffer, which load reuses from segment to segment.
type frameReader struct {
	br  *bufio.Reader
	off int64  // file offset of the next frame
	end int64  // file offset the frames must end by
	big []byte // a frame longer than br's buffer
}

// reset points the reader at the frames in f's bytes [off, end). The
// buffer grows to the span, up to replayChunk, so a short tail costs a
// short buffer.
func (fr *frameReader) reset(f *os.File, off, end int64) {
	r := io.NewSectionReader(f, off, end-off)
	if want := int(min(end-off, replayChunk)); fr.br == nil || fr.br.Size() < want {
		fr.br = bufio.NewReaderSize(r, max(want, 4<<10))
	} else {
		fr.br.Reset(r)
	}
	fr.off, fr.end = off, end
}

// next returns the frame at fr.off if it is whole and well formed and its
// CRC verifies, and moves past it; the frame is valid until the next call.
// Otherwise it returns nil and stays put, with end reporting whether the
// log ends there: a frame header of eight zero bytes, which is where a
// zero-filled segment's unwritten blocks begin. A short or bad frame is
// not an error; err is the file's.
func (fr *frameReader) next() (frame []byte, end bool, err error) {
	hdr, err := fr.br.Peek(frameHeader)
	if err != nil {
		if err == io.EOF {
			err = nil // a torn header, or no bytes left
		}
		return nil, false, err
	}
	blen := int64(binary.BigEndian.Uint32(hdr))
	if blen == 0 && binary.BigEndian.Uint32(hdr[4:]) == 0 {
		return nil, true, nil
	}
	flen := frameHeader + blen
	if blen < bodyHeader || flen > fr.end-fr.off {
		return nil, false, nil // torn or nonsense body
	}
	peeked := flen <= int64(fr.br.Size())
	if peeked {
		frame, err = fr.br.Peek(int(flen))
	} else {
		// The length is bounded by the span's, so this buffer is too.
		fr.big = slices.Grow(fr.big[:0], int(flen))[:flen]
		frame = fr.big
		_, err = io.ReadFull(fr.br, frame)
	}
	if err != nil {
		return nil, false, err
	}
	body := frame[frameHeader:]
	op := body[8] &^ opMore
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(frame[4:]) ||
		bodyHeader+int64(binary.BigEndian.Uint32(body[9:])) > blen || (op != opPut && op != opDelete) {
		return nil, false, nil // torn mid-frame, or not a frame this engine writes
	}
	if peeked {
		fr.br.Discard(int(flen))
	}
	fr.off += flen
	return frame, false, nil
}

// replaySegment reads one segment's records from byte offset start into
// winners, truncating a torn tail in place. A nonzero start skips bytes a
// checkpoint already covers — they were durable and indexed when the
// checkpoint was taken, so only the tail is read and verified. tail marks
// a checkpoint-guided replay for the ReplayedTailRecords counter.
//
// Records are applied batch by batch: frames marked opMore wait in open
// until the frame that closes their batch has been verified, and valid —
// the length the segment keeps — advances only past a closed batch. A
// batch still open when the scan stops (at end of file or at a bad frame)
// is therefore truncated whole with the torn tail. A log with no opMore
// bits, which is every log older than the bit, replays one frame per batch.
func (s *Store) replaySegment(fr *frameReader, id, start int64, winners map[string]replayEntry, tail bool) (*segment, error) {
	path := s.segPath(id)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("walengine: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("walengine: %w", err)
	}
	fileSize := info.Size()
	start = min(start, fileSize) // validated earlier; defensive
	fr.reset(f, start, fileSize)
	type record struct {
		key string
		e   replayEntry
	}
	var open []record // verified frames of the batch being read
	valid := start
	var end bool
	for {
		var frame []byte
		frame, end, err = fr.next()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("walengine: reading %s: %w", path, err)
		}
		if frame == nil {
			break
		}
		off := fr.off - int64(len(frame))
		body := frame[frameHeader:]
		klen := int64(binary.BigEndian.Uint32(body[9:]))
		open = append(open, record{
			key: string(body[bodyHeader : bodyHeader+klen]),
			e: replayEntry{
				lsn: binary.BigEndian.Uint64(body),
				put: body[8]&^opMore == opPut,
				l: loc{
					seg:  id,
					off:  off,
					flen: int64(len(frame)),
					voff: off + frameHeader + bodyHeader + klen,
					vlen: int64(len(body)) - bodyHeader - klen,
				},
			},
		})
		if body[8]&opMore != 0 {
			continue
		}
		for _, r := range open {
			if w, ok := winners[r.key]; !ok || r.e.lsn > w.lsn {
				winners[r.key] = r.e
			}
		}
		s.wal.ReplayedRecords.Add(int64(len(open)))
		if tail {
			s.wal.ReplayedTailRecords.Add(int64(len(open)))
		}
		open = open[:0]
		valid = fr.off
	}
	if len(open) > 0 {
		s.wal.TornBatches.Add(1)
	}
	if cut := fileSize - valid; cut > 0 {
		if len(open) > 0 || !end {
			s.wal.TornRecords.Add(1)
			s.wal.TornBytes.Add(cut)
		}
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("walengine: truncating torn tail of %s: %w", path, err)
		}
	}
	return &segment{id: id, f: f, size: valid, synced: valid}, nil
}

// Close durably seals the log and releases every file handle. Subsequent
// operations return storage.ErrUnavailable until Reopen. Close first joins
// any checkpoint in flight; with automatic checkpoints enabled
// (Options.CheckpointEvery > 0) it then writes a final one, so a clean
// restart replays nothing.
func (s *Store) Close() error {
	// Held through the close, so no checkpoint starts underneath it.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.cfg.CheckpointEvery > 0 {
		// Best effort; a failed checkpoint just means the next reopen
		// replays a longer tail.
		_, _ = s.checkpointLocked()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.active.f.Sync()
	if err == nil {
		s.active.synced = s.active.size
		s.trimLocked(s.active)
	}
	s.closeLocked()
	s.mu.Unlock()
	s.awaitCompaction()
	return err
}

// Crash simulates a process crash: appended-but-unsynced bytes are
// discarded (no caller was ever acknowledged for them), every handle is
// closed, and the engine reports storage.ErrUnavailable until Reopen
// replays the log. In-flight writers observe the failure through their
// durability wait.
func (s *Store) Crash() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	var err error
	if a := s.active; a.synced < a.size {
		err = a.f.Truncate(a.synced)
		if err == nil && a.prealloc > a.synced {
			// The zero-filled length was durable: what a crash loses of
			// a preallocated segment reads back as zeros.
			err = a.f.Truncate(a.prealloc)
		}
	}
	s.closeLocked()
	s.mu.Unlock()
	s.awaitCompaction()
	return err
}

// awaitCompaction blocks until any in-flight compaction has observed the
// closed flag and aborted. Without this, a background compaction could
// outlive a Crash/Reopen cycle and splice its pre-crash segment table into
// the freshly replayed state.
func (s *Store) awaitCompaction() {
	s.compactMu.Lock()
	//lint:ignore SA2001 the critical section IS the wait
	s.compactMu.Unlock()
}

// closeLocked marks the engine down, deletes the spare and closes every
// segment handle. Callers hold s.mu.
func (s *Store) closeLocked() {
	s.closed = true
	s.dropSpareLocked()
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.segs = nil
	s.active = nil
	s.index = nil
}

// Reopen replays the log directory after a Close or Crash, restoring
// exactly the acknowledged state.
func (s *Store) Reopen() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		return fmt.Errorf("walengine: Reopen of an open engine")
	}
	return s.load()
}

// check gates an operation on context liveness and engine availability.
func (s *Store) check(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return storage.ErrUnavailable
	}
	return nil
}

// staged is one record encoded into Store.buf and not yet indexed.
type staged struct {
	key      string
	op       byte
	off, end int   // the frame's extent within Store.buf
	vlen     int64 // value length
}

// maxKeptBuf bounds the frame buffer a Store keeps between appends; one
// outsized batch must not pin its buffer for the life of the engine.
const maxKeptBuf = 1 << 20

// beginLocked starts one append call: it rolls a full segment and empties
// the frame buffer. The roll happens here and nowhere else, so every frame
// of the call lands in one segment — rollLocked fsyncs what it seals, and
// a batch cut by a roll would have its first half durable alone. (A
// segment may therefore overshoot SegmentBytes by one call's frames.)
// Callers hold s.mu.
func (s *Store) beginLocked() error {
	if s.active.size >= s.cfg.SegmentBytes {
		if err := s.rollLocked(); err != nil {
			return err
		}
	}
	s.buf = s.buf[:0]
	s.staged = s.staged[:0]
	return nil
}

// stageLocked encodes one record at the end of the frame buffer; op may
// carry opMore. Nothing reaches the file or the index until landLocked.
// Callers hold s.mu.
func (s *Store) stageLocked(op byte, key string, value []byte) {
	blen := bodyHeader + len(key) + len(value)
	off := len(s.buf)
	s.buf = slices.Grow(s.buf, frameHeader+blen)[:off+frameHeader+blen]
	frame := s.buf[off:]
	body := frame[frameHeader:]
	binary.BigEndian.PutUint64(body, s.lsn+uint64(len(s.staged)))
	body[8] = op
	binary.BigEndian.PutUint32(body[9:], uint32(len(key)))
	copy(body[bodyHeader:], key)
	copy(body[bodyHeader+len(key):], value)
	binary.BigEndian.PutUint32(frame, uint32(blen))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
	s.staged = append(s.staged, staged{key: key, op: op &^ opMore, off: off, end: len(s.buf), vlen: int64(len(value))})
}

// landLocked writes every staged frame at the active segment's tail with
// one WriteAt and, only once that write has succeeded, updates the index
// and live-byte accounting: a failed call leaves the engine as it found
// it. The bytes are durable only after the next fsync covering them.
// Callers hold s.mu.
func (s *Store) landLocked() error {
	seg := s.active
	_, err := seg.f.WriteAt(s.buf, seg.size)
	if err != nil {
		// seg.size is not advanced, so the next append overwrites whatever
		// part of the write landed. Cut it off as well: if that append is
		// shorter, whole frames of this failed call would survive behind
		// it and replay as if they had been written.
		_ = seg.f.Truncate(seg.size) // best effort; replay drops a torn tail
		err = fmt.Errorf("walengine: append: %w", err)
	} else {
		base := seg.size
		seg.size += int64(len(s.buf))
		for _, r := range s.staged {
			l := loc{
				seg:  seg.id,
				off:  base + int64(r.off),
				flen: int64(r.end - r.off),
				voff: base + int64(r.end) - r.vlen,
				vlen: r.vlen,
			}
			if old, ok := s.index[r.key]; ok {
				s.segs[old.seg].live -= old.flen
				l.hadDurable = old.hadDurable || s.durableLocked(old)
			}
			if r.op == opPut {
				s.index[r.key] = l
				seg.live += l.flen
			} else {
				delete(s.index, r.key)
				seg.tombEnd = l.off + l.flen
			}
		}
		s.lsn += uint64(len(s.staged))
		s.wal.Appends.Add(int64(len(s.staged)))
		if s.spare == nil && seg.size > s.cfg.SegmentBytes/2 {
			s.startSpareLocked()
		}
	}
	clear(s.staged) // drop the key references
	if cap(s.buf) > maxKeptBuf {
		s.buf = nil
	}
	return err
}

// appendLocked appends one record on its own. Callers hold s.mu.
func (s *Store) appendLocked(op byte, key string, value []byte) error {
	if err := s.beginLocked(); err != nil {
		return err
	}
	s.stageLocked(op, key, value)
	return s.landLocked()
}

// rollLocked seals the active segment (fsyncing its tail so sealed
// segments are always fully durable, then trimming its zeros) and makes
// the next one active: the spare, waited for if it is still being
// prepared, or — with none, or one whose preparation failed — a new file
// created here. Callers hold s.mu.
func (s *Store) rollLocked() error {
	old := s.active
	if err := old.f.Sync(); err != nil {
		return fmt.Errorf("walengine: sealing segment %d: %w", old.id, err)
	}
	old.synced = old.size
	s.trimLocked(old)
	if seg := s.takeSpareLocked(); seg != nil {
		s.segs[seg.id] = seg
		s.active = seg
		s.wal.SegmentRolls.Add(1)
		return nil // its directory entry is already durable
	}
	id := s.next
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("walengine: %w", err)
	}
	s.next++
	seg := &segment{id: id, f: f}
	s.segs[id] = seg
	s.active = seg
	s.wal.SegmentRolls.Add(1)
	return s.syncDir()
}

// trimLocked cuts a synced segment's zero tail off its file. Best effort,
// and not synced: a crash that loses the trim leaves zeros, which replay
// reads as the end of the log. Callers hold s.mu.
func (s *Store) trimLocked(seg *segment) {
	if seg.prealloc > seg.size {
		_ = seg.f.Truncate(seg.size)
		seg.prealloc = 0
	}
}

// syncRounds numbers the log's fsync rounds. Rounds run one at a time, and
// each is run by one of the goroutines waiting for it; the rest sleep on
// cond until the round they need has finished. A durability wait allocates
// nothing: it is a round number and a counter.
type syncRounds struct {
	mu   sync.Mutex
	cond sync.Cond // L is &mu; broadcast when a round finishes
	// started and done count the rounds begun and finished; one is running
	// while started > done.
	started, done uint64
	// waiting counts the waits registered for round started+1.
	waiting int
	// failed holds every failed round some of whose waiters have yet to
	// collect its error. It is empty unless an fsync has failed.
	failed []failedRound
}

// failedRound is one failed fsync round and the waits still to learn so.
type failedRound struct {
	round uint64
	err   error
	left  int
}

// requestSync blocks until an fsync covering every byte appended before
// the call has completed. The wait needs the first round that begins after
// the call — a running round may have started before those bytes landed —
// and runs that round itself if none is running when it is due, so every
// wait that arrives during one fsync shares the next. A round's error
// reaches every wait of that round and no other: a later round's success
// says nothing about bytes an earlier fsync failed to make durable.
//
// gen is the log generation observed (under s.mu) when the bytes being
// awaited were appended or examined: if the engine crashes and reopens
// before the wait is answered, it fails with ErrUnavailable instead of
// being satisfied by the NEW generation's sync — the old bytes were
// truncated, not made durable. The caller must have released s.mu.
func (s *Store) requestSync(gen uint64) error {
	q := &s.sy
	q.mu.Lock()
	need := q.started + 1
	q.waiting++
	for q.done < need && q.started > q.done {
		q.cond.Wait() // wait out the running round
	}
	var err error
	if q.done < need {
		// Nothing is running, so the next round is the one needed.
		err = s.runRoundLocked(need)
	} else {
		err = q.collectLocked(need)
	}
	q.mu.Unlock()
	if err != nil {
		return err
	}
	s.mu.RLock()
	cur := s.gen
	s.mu.RUnlock()
	if cur != gen {
		return storage.ErrUnavailable
	}
	return nil
}

// runRoundLocked runs fsync round r on behalf of every wait registered for
// it, leaving its error behind for the others, and returns it. Callers
// hold s.sy.mu, which is released during the fsync.
func (s *Store) runRoundLocked(r uint64) error {
	q := &s.sy
	q.started = r
	others := q.waiting - 1
	q.waiting = 0
	q.mu.Unlock()
	var err error
	if hook := s.syncHook; hook != nil {
		err = hook(r)
	}
	if err == nil {
		err = s.fsyncActive()
	}
	q.mu.Lock()
	q.done = r
	if err != nil && others > 0 {
		q.failed = append(q.failed, failedRound{round: r, err: err, left: others})
	}
	q.cond.Broadcast()
	return err
}

// collectLocked returns the outcome of finished round r for one of the
// waits that did not run it. Callers hold q.mu.
func (q *syncRounds) collectLocked(r uint64) error {
	for i := range q.failed {
		f := &q.failed[i]
		if f.round != r {
			continue
		}
		err := f.err
		if f.left--; f.left == 0 {
			q.failed = slices.Delete(q.failed, i, i+1)
		}
		return err
	}
	return nil
}

// fsyncActive syncs the active segment and advances its durability
// watermark. The watermark moves BEFORE any waiter is acknowledged, so a
// Crash can never truncate an acknowledged byte.
func (s *Store) fsyncActive() error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return storage.ErrUnavailable
	}
	seg := s.active
	target := seg.size
	s.mu.RUnlock()
	start := time.Now()
	err := seg.f.Sync()
	s.fsyncTime.Observe(time.Since(start))
	s.wal.Fsyncs.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// A crash raced the sync; the bytes may have been truncated, so
		// nobody waiting on this flush may be acknowledged.
		return storage.ErrUnavailable
	}
	if err != nil {
		return fmt.Errorf("walengine: fsync: %w", err)
	}
	if s.active == seg && target > seg.synced {
		seg.synced = target
	}
	return nil
}

// durableLocked reports whether the record at l is covered by an fsync.
// Sealed and compacted segments are always fully durable; only the active
// segment's tail can be pending. Callers hold s.mu.
func (s *Store) durableLocked(l loc) bool {
	return l.off+l.flen <= s.segs[l.seg].synced
}

// undurableAbsenceLocked reports whether some tombstone is still inside
// the group-fsync window: until it is covered, an observed absence may be
// the tombstone's doing, and a crash would un-delete the key. Only
// tombstones can invalidate absence — an unsynced PUT that a crash erases
// leaves absence correct — so paths acknowledging absence gate on this
// rather than on all pending bytes. Callers hold s.mu.
func (s *Store) undurableAbsenceLocked() bool {
	return s.active.tombEnd > s.active.synced
}

// Get implements storage.Store: an index lookup plus one pread. The read
// lock pins the segment file against concurrent compaction removal.
//
// Reads return only fsync-durable state: a record still inside the group-
// fsync window (and likewise an absence produced by a not-yet-durable
// tombstone) first waits out a coalesced sync, so no caller can observe —
// and act on — bytes that a Crash would erase.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.metrics.Gets.Add(1)
	for {
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return nil, storage.ErrUnavailable
		}
		gen := s.gen
		l, ok := s.index[key]
		if !ok {
			undurable := s.undurableAbsenceLocked()
			s.mu.RUnlock()
			if undurable {
				// The absence may rest on an unsynced tombstone; make the
				// log durable before acknowledging it (re-checked each
				// pass — a fresh tombstone can land during the wait).
				if err := s.requestSync(gen); err != nil {
					return nil, err
				}
				continue
			}
			return nil, storage.ErrNotFound
		}
		if s.durableLocked(l) {
			v, err := s.readValueLocked(l)
			s.mu.RUnlock()
			return v, err
		}
		s.mu.RUnlock()
		if err := s.requestSync(gen); err != nil {
			return nil, err
		}
		// Re-select: the record observed above is durable now, but it may
		// have been superseded while we waited.
	}
}

// readValueLocked preads one record's value. Callers hold s.mu (either
// mode).
func (s *Store) readValueLocked(l loc) ([]byte, error) {
	out := make([]byte, l.vlen)
	if l.vlen == 0 {
		return out, nil
	}
	if _, err := s.segs[l.seg].f.ReadAt(out, l.voff); err != nil {
		return nil, fmt.Errorf("walengine: read segment %d: %w", l.seg, err)
	}
	return out, nil
}

// Put implements storage.Store: append, then wait out a covering fsync.
func (s *Store) Put(ctx context.Context, key string, value []byte) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	s.metrics.Puts.Add(1)
	ap := telemetry.StartSpan(ctx, "wal.append")
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ap.End()
		return storage.ErrUnavailable
	}
	err := s.appendLocked(opPut, key, value)
	gen := s.gen
	s.mu.Unlock()
	ap.End()
	if err != nil {
		return err
	}
	fw := telemetry.StartSpan(ctx, "wal.fsync_wait")
	err = s.requestSync(gen)
	fw.End()
	if err != nil {
		return err
	}
	s.maybeCompact()
	s.maybeCheckpoint()
	return nil
}

// BatchPut implements storage.Store: all items are framed into one buffer
// (in sorted key order, so the log layout is a function of the batch, not
// of map iteration), every frame but the last marked opMore, and land with
// one write and one durability wait — all of them survive a crash or none
// does.
func (s *Store) BatchPut(ctx context.Context, items map[string][]byte) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	if len(items) == 0 {
		return nil
	}
	s.metrics.Batches.Add(1)
	s.metrics.BatchItems.Add(int64(len(items)))
	ap := telemetry.StartSpan(ctx, "wal.append")
	ap.Annotate("items", strconv.Itoa(len(items)))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ap.End()
		return storage.ErrUnavailable
	}
	err := s.beginLocked()
	if err == nil {
		keys := s.keys[:0]
		for k := range items {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		last := len(keys) - 1
		for _, k := range keys[:last] {
			s.stageLocked(opPut|opMore, k, items[k])
		}
		s.stageLocked(opPut, keys[last], items[keys[last]])
		clear(keys) // drop the key references
		s.keys = keys[:0]
		err = s.landLocked()
	}
	gen := s.gen
	s.mu.Unlock()
	ap.End()
	if err != nil {
		return err
	}
	fw := telemetry.StartSpan(ctx, "wal.fsync_wait")
	err = s.requestSync(gen)
	fw.End()
	if err != nil {
		return err
	}
	s.maybeCompact()
	s.maybeCheckpoint()
	return nil
}

// BatchGet implements storage.Store: every lookup and pread happens under
// one read-lock hold — the whole batch is one "round trip" to the disk.
// Missing keys are absent from the result; empty values are present. Like
// Get, only fsync-durable state is returned: a batch touching records (or
// absences) inside the group-fsync window waits out a coalesced sync and
// re-selects.
func (s *Store) BatchGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return map[string][]byte{}, nil
	}
	s.metrics.BatchGets.Add(1)
	s.metrics.BatchGetItems.Add(int64(len(keys)))
	for {
		out := make(map[string][]byte, len(keys))
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return nil, storage.ErrUnavailable
		}
		gen := s.gen
		retry := false
		sawMissing := false
		for _, k := range keys {
			l, ok := s.index[k]
			if !ok {
				sawMissing = true
				continue
			}
			if !s.durableLocked(l) {
				retry = true
				break
			}
			v, err := s.readValueLocked(l)
			if err != nil {
				s.mu.RUnlock()
				return nil, err
			}
			out[k] = v
		}
		if !retry && sawMissing && s.undurableAbsenceLocked() {
			retry = true
		}
		s.mu.RUnlock()
		if !retry {
			return out, nil
		}
		if err := s.requestSync(gen); err != nil {
			return nil, err
		}
	}
}

// Delete implements storage.Store: a tombstone append (skipped when the
// key is already absent — no record can resurrect it) plus a durability
// wait.
func (s *Store) Delete(ctx context.Context, key string) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	s.metrics.Deletes.Add(1)
	return s.deleteKeys([]string{key})
}

// BatchDelete implements storage.Store: present keys gain tombstones in
// one write and share one fsync (the global GC retires whole collection
// rounds this way).
func (s *Store) BatchDelete(ctx context.Context, keys []string) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	if len(keys) == 0 {
		return nil
	}
	s.metrics.BatchDeletes.Add(1)
	s.metrics.BatchDeleteItems.Add(int64(len(keys)))
	return s.deleteKeys(keys)
}

// deleteKeys appends tombstones for the present subset of keys and waits
// out their fsync. Deleting a missing key is not an error and needs no
// log traffic — but when the observed absence rests on appended-but-
// unsynced bytes (another caller's in-flight tombstone), the ack still
// waits for a covering fsync: acknowledging against state a crash would
// erase is how an "idempotent" delete resurrects.
//
// The tombstones carry no opMore: a delete batch promises no atomicity, so
// a crash may keep any prefix of it.
func (s *Store) deleteKeys(keys []string) error {
	sorted := keys
	if len(keys) > 1 {
		sorted = append([]string(nil), keys...)
		sort.Strings(sorted)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return storage.ErrUnavailable
	}
	appended := false
	var err error
	for i, k := range sorted {
		if _, ok := s.index[k]; !ok || (i > 0 && k == sorted[i-1]) {
			continue
		}
		if !appended {
			if err = s.beginLocked(); err != nil {
				break
			}
			appended = true
		}
		s.stageLocked(opDelete, k, nil)
	}
	if appended && err == nil {
		err = s.landLocked()
	}
	mustSync := appended || s.undurableAbsenceLocked()
	gen := s.gen
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if !mustSync {
		return nil
	}
	if err := s.requestSync(gen); err != nil {
		return err
	}
	s.maybeCompact()
	s.maybeCheckpoint()
	return nil
}

// List implements storage.Store, returning the DURABLE key snapshot in
// both directions. Presence: a key appears only if a fsync-covered record
// establishes it — one whose only record is still inside the group-fsync
// window is omitted (its write is not yet acknowledged; the listing
// linearizes before it), so a crash can never erase a key a listing
// reported. AFT trusts listings for commit-record recovery, and a record
// that is announced and then vanishes is a lost write. Absence: an
// unsynced tombstone has removed its key from the index, so while one is
// outstanding the listing waits out a sync — otherwise a crash would
// un-delete a key the listing omitted.
func (s *Store) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.metrics.Lists.Add(1)
	for {
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return nil, storage.ErrUnavailable
		}
		if s.undurableAbsenceLocked() {
			gen := s.gen
			s.mu.RUnlock()
			if err := s.requestSync(gen); err != nil {
				return nil, err
			}
			continue
		}
		out := make([]string, 0)
		for k, l := range s.index {
			if strings.HasPrefix(k, prefix) && (l.hadDurable || s.durableLocked(l)) {
				out = append(out, k)
			}
		}
		s.mu.RUnlock()
		sort.Strings(out)
		return out, nil
	}
}

// Len returns the number of live keys (test/diagnostic helper).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}
