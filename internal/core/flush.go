package core

// flush.go implements the node's one write routine, flush: it persists one
// commit's storage writes in §3.3's order and then makes the commit
// visible. Every commit runs it on its own goroutine, over its own
// request, the moment it commits: no commit queues behind another's flush.
// Concurrent commits still share what a device can share — the WAL answers
// every durability wait that arrives during one fsync with the next one
// (walengine's "Group fsync") — so coalescing lives in one place, below
// the node.
//
// A commit whose record carries its values (an inline record, commit.go)
// has one write: the record's Put, on every engine. Otherwise a flush has
// one or two write phases, by what the engine reports in Capabilities() —
// never by a setting. Either way it keeps §3.3's guarantee: no commit
// record is ever DURABLE without its data, and no commit is acknowledged
// before its record is durable.
//
//   - An engine that promises nothing across keys gets the paper's strict
//     write ordering: the data phase writes the transaction's data
//     versions, then, only once all of them are durable, the record phase
//     writes its commit record.
//   - An engine that reports AtomicBatches (the WAL) gets one write phase:
//     the data followed by the record, all in one BatchPut — one device
//     wait where the ordered path pays two. The call survives a crash whole
//     or not at all, so a record cannot outlive its data; and if the call
//     fails, writeChunk's item-by-item retry walks the writes in order and
//     stops at the first that fails, which is data before record again.
//     Such an engine takes a batch of any size (storage.Capabilities), so
//     this phase is always that one call.
//
// A phase's writes are independent of each other — §3.3 orders only the
// data before the record, which the phases already do — so a phase sends
// all of its storage calls at once (up to storage.MaxCallsInFlight, the
// bound the simulators' chunked calls share) and waits for the slowest: one
// round trip per phase, whether the phase is one BatchPut, several chunks
// of the engine's batch limit, or one point Put per item on an engine
// without batch writes. A larger phase — a 100-key commit on an engine
// without batch writes — costs one round trip per that many calls.
//
// Only then does the visibility phase install the record into the metadata
// stripes and append it to the multicast queue. The write phases take no
// node lock; the visibility phase takes announceMu shared, the record's
// stripes in the order stripe.go fixes, then recMu, on either path.
//
// A commit's storage writes, the maps handed to BatchPut and the commit
// record's encoding all live in one pooled flushScratch, which the commit
// takes before it copies its write buffer and returns once it is done. A
// phase's chunks are sub-slices of those writes, so a flush whose phases
// are one call each allocates nothing of its own; a phase of several calls
// adds only the goroutines that carry them.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/telemetry"
)

// kv is one storage write: a storage key and the bytes stored under it.
type kv struct {
	key string
	val []byte
}

// chunkErr is the first write of a chunk that failed: its key and error.
// The zero value means every write of the chunk is durable.
type chunkErr struct {
	key string
	err error
}

// flushScratch is the working memory of one commit's flush, pooled across
// commits and nodes.
type flushScratch struct {
	// writes are the commit's storage writes in §3.3 order: the step-1
	// data (one storage key per buffered version), then the step-2 commit
	// record, last. One slice, so each phase's writes and chunks are
	// sub-slices of it. The record's value is the record's encoding, which
	// flush writes into record and takes back before it returns. An
	// inline record's writes before it are not sent: they only name the
	// values' data-cache entries.
	writes []kv
	// values are an inline record's values, aligned with its write set.
	values [][]byte
	// maps are the BatchPut arguments, one per chunk of the phase, each
	// filled for its call and cleared after it: storage.Store.BatchPut may
	// neither retain nor mutate it. An engine without batch writes needs
	// none.
	maps []map[string][]byte
	// errs are the phase's outcomes, one per chunk, each written by the one
	// goroutine that writes the chunk and read once the phase has returned.
	errs []chunkErr
	// next hands a multi-call phase's chunks to the goroutines writing
	// them; wg waits for those goroutines.
	next atomic.Int64
	wg   sync.WaitGroup
	// calls counts the storage calls this flush issued, one per chunk (a
	// failed chunk's item-by-item retry not counted).
	calls int
	// record holds the commit record's encoding while the flush writes it:
	// storage.Store's Put and BatchPut keep no value after they return.
	record []byte
}

// maxPooledRecord bounds the record buffer a flushScratch keeps across
// flushes; the rare larger record's buffer goes to the collector.
const maxPooledRecord = 64 << 10

var flushScratchPool = sync.Pool{New: func() any { return new(flushScratch) }}

// release clears what sc holds of its commit — keys and values the pool
// must not keep alive — and returns it to the pool.
func (sc *flushScratch) release() {
	clear(sc.writes)
	sc.writes = sc.writes[:0]
	clear(sc.values)
	sc.values = sc.values[:0]
	if cap(sc.record) > maxPooledRecord {
		sc.record = nil
	}
	flushScratchPool.Put(sc)
}

// flush runs the write routine for the commit of rec, whose storage
// writes are sc.writes, on the caller's goroutine and returns the
// transaction's outcome; see the file comment for the phases and their
// ordering guarantees. A traced commit gets a gc.flush span whose calls
// annotation is the number of storage calls the flush sent: 1 for an
// inline record and on the one-call path, and on the ordered one 2, or
// more when a phase is several chunks.
func (n *Node) flush(ctx context.Context, sc *flushScratch, rec *records.CommitRecord) error {
	sp := telemetry.StartSpan(ctx, "gc.flush")
	defer sp.End()
	n.metrics.GroupFlushes.Add(1)
	n.metrics.GroupedCommits.Add(1)
	w, last := sc.writes, len(sc.writes)-1
	if rec.Inline {
		sc.record = rec.AppendInline(sc.record[:0], sc.values)
		w, last = w[last:], 0
	} else {
		sc.record, _ = rec.AppendBinary(sc.record[:0]) // reports no error
	}
	w[last].val = sc.record
	var failed chunkErr
	if n.store.Capabilities().AtomicBatches {
		// One write phase: the data, then the record, in one
		// all-or-nothing call.
		failed = n.writePhase(ctx, sc, w)
	} else if failed = n.writePhase(ctx, sc, w[:last]); failed.err == nil {
		// The record only once the data is fully durable (§3.3: the
		// record is the visibility point).
		failed = n.writePhase(ctx, sc, w[last:])
	}
	sp.Annotate("calls", strconv.Itoa(sc.calls))
	sc.calls = 0
	w[last].val = nil
	if failed.err != nil {
		// The transaction's stray data stays invisible: its commit record
		// is not durable (§3.3).
		what := "aft: persisting write set"
		if failed.key == w[last].key {
			what = "aft: persisting commit record"
		}
		return fmt.Errorf("%s: %w", what, failed.err)
	}

	// Visibility phase: install the durable record into its stripes, then
	// append it to the multicast queue.
	n.announceMu.RLock()
	defer n.announceMu.RUnlock()
	var buf [16]*stripe
	ss := n.appendStripes(buf[:0], rec.WriteSet)
	lockStripes(ss)
	n.installLocked(rec, ss)
	unlockStripes(ss)
	n.recMu.Lock()
	n.recent = append(n.recent, rec)
	n.recMu.Unlock()
	return nil
}

// batchLimit returns how many items one BatchPut call may carry: the
// engine's Capabilities().MaxBatchSize, whose 0 means unbounded — one call
// then takes everything a phase has to write. An engine without a batch
// primitive gets 1: every write goes through the point API.
func (n *Node) batchLimit() int {
	caps := n.store.Capabilities()
	switch {
	case !caps.BatchWrites:
		return 1
	case caps.MaxBatchSize <= 0:
		return math.MaxInt
	default:
		return caps.MaxBatchSize
	}
}

// writePhase writes items in chunks of the engine's batch limit and sends
// every chunk at once: the phase costs the slowest call's round trip, not
// the sum of them. Once all calls have returned it reports the first
// failed write in item order, or the zero chunkErr if every item is
// durable.
func (n *Node) writePhase(ctx context.Context, sc *flushScratch, items []kv) chunkErr {
	if len(items) == 0 {
		return chunkErr{}
	}
	limit := n.batchLimit()
	calls := 1 + (len(items)-1)/limit
	if limit > 1 {
		for len(sc.maps) < calls {
			sc.maps = append(sc.maps, make(map[string][]byte))
		}
	}
	if len(sc.errs) < calls {
		sc.errs = make([]chunkErr, calls)
	}
	sc.next.Store(0)
	if workers := min(calls, storage.MaxCallsInFlight); workers > 1 {
		// The caller writes chunks beside workers-1 goroutines; each takes
		// the next unwritten chunk until none is left.
		sc.wg.Add(workers - 1)
		work := func() {
			n.writeChunks(ctx, sc, items, limit)
			sc.wg.Done()
		}
		for range workers - 1 {
			go work()
		}
	}
	n.writeChunks(ctx, sc, items, limit)
	sc.wg.Wait()
	sc.calls += calls
	errs := sc.errs[:calls]
	var first chunkErr
	for _, e := range errs {
		if e.err != nil {
			first = e
			break
		}
	}
	clear(errs)
	return first
}

// writeChunks writes chunks of limit items from items, taking the next
// unwritten one from sc.next until none is left.
func (n *Node) writeChunks(ctx context.Context, sc *flushScratch, items []kv, limit int) {
	for {
		c := int(sc.next.Add(1) - 1)
		lo := c * limit
		if lo >= len(items) {
			return
		}
		var m map[string][]byte
		if c < len(sc.maps) {
			m = sc.maps[c]
		}
		sc.errs[c] = n.writeChunk(ctx, items[lo:min(lo+limit, len(items))], m)
	}
}

// writeChunk writes one chunk in one storage call: a BatchPut of m, which
// it fills from chunk and clears again, or a point Put for a one-item
// chunk. It touches only its own chunk and m, so a phase's chunks run
// concurrently. A batch may apply partially (storage.go permits non-atomic
// batches), so a failed one is retried item by item through the point API,
// in order, up to the first write that fails: the transaction has failed
// by then, and on the one-call path a failed data write is never followed
// by the record's. Re-writing items the partial batch already applied is a
// harmless overwrite. A batch the engine refused for an oversized item
// (storage.ErrItemTooLarge) applied nothing and is not retried.
func (n *Node) writeChunk(ctx context.Context, chunk []kv, m map[string][]byte) chunkErr {
	if len(chunk) > 1 {
		for _, it := range chunk {
			m[it.key] = it.val
		}
		sp := telemetry.StartSpan(ctx, "storage.batchput")
		sp.Annotate("items", strconv.Itoa(len(chunk)))
		err := n.store.BatchPut(ctx, m)
		sp.End()
		clear(m)
		if err == nil {
			return chunkErr{}
		}
		if errors.Is(err, storage.ErrItemTooLarge) {
			return chunkErr{chunk[0].key, err}
		}
	}
	// A solo item takes the point API outright: a one-item batch buys no
	// round trip, and real engines price BatchWriteItem worse than PutItem,
	// so an uncontended commit keeps the point-write storage profile.
	for _, it := range chunk {
		if err := n.store.Put(ctx, it.key, it.val); err != nil {
			return chunkErr{it.key, err}
		}
	}
	return chunkErr{}
}
