package core

// flush.go implements the node's one write routine, flushCommits: it
// persists a commit's storage writes in §3.3's order and then makes the
// commit visible. Every commit runs it on its own goroutine, over its own
// request, the moment it commits: no commit queues behind another's flush.
// Concurrent commits still share what a device can share — the WAL answers
// every durability wait that arrives during one fsync with the next one
// (walengine's "Group fsync") — so coalescing lives in one place, below
// the node.
//
// A flush has two or three phases, by what the engine reports in
// Capabilities() — never by a setting. Every flush preserves §3.3's
// guarantee for all its member transactions: no commit record is ever
// DURABLE without its data, and no commit is acknowledged before its
// record is durable.
//
//   - An engine that promises nothing across keys gets the paper's strict
//     write ordering: the data phase writes every transaction's data
//     versions, then the record phase writes the commit records of exactly
//     those transactions whose data is fully durable.
//   - An engine that reports AtomicBatches (the WAL) gets one write phase:
//     each member's data followed by its record, all in one BatchPut — one
//     device wait where the ordered path pays two. The call survives a
//     crash whole or not at all, so a record cannot outlive its data; and
//     if the call fails, writeChunk's item-by-item retry walks the items in
//     order and drops a failed member's remainder, which is data before
//     record per member again. Such an engine takes a batch of any size
//     (storage.Capabilities), so this phase is always that one call.
//
// A phase's writes are independent of each other — §3.3 orders only a
// transaction's own data before its own record, which the phases already
// do — so a phase sends all of its storage calls at once (up to
// maxCallsInFlight) and waits for the slowest: one round trip per phase,
// whether the phase is one BatchPut, several chunks of the engine's batch
// limit, or one point Put per item on an engine without batch writes.
//
// Only then does the visibility phase install the records into the metadata
// stripes and enqueue the whole flush as ONE append to the multicast queue.
// The write phases take no node lock; the visibility phase takes announceMu
// shared, each record's stripes in the order stripe.go fixes, then recMu, on
// either path.
//
// A commit hands flushCommits a batch of one; the routine takes a batch
// because its phases, chunking and per-item failure attribution are
// defined over several members. Its working memory — the member list, the
// phase's items and the maps handed to BatchPut — is a pooled
// flushScratch, so a flush whose phases are one call each allocates
// nothing of its own; a phase of several calls adds only the goroutines
// that carry them.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"aft/internal/records"
	"aft/internal/telemetry"
)

// kv is one storage write: a storage key and the bytes stored under it.
type kv struct {
	key string
	val []byte
}

// commitReq is one transaction's submission to the write routine.
type commitReq struct {
	// writes are the transaction's storage writes in §3.3 order: the step-1
	// data (one storage key per buffered version, or the single packed
	// object under the packed layout), then the step-2 commit record, last.
	// One slice, so each phase's items are a sub-slice of it.
	writes []kv
	// rec is installed into the metadata stripes after record is durable.
	rec *records.CommitRecord
	// err is the transaction's outcome, written by the flush.
	err error
}

func dataOf(req *commitReq) []kv   { return req.writes[:len(req.writes)-1] }
func recordOf(req *commitReq) []kv { return req.writes[len(req.writes)-1:] }
func writesOf(req *commitReq) []kv { return req.writes }

// flushItem is one pending write of the phase being written, with the
// index in flushScratch.batch of the request that owns it.
type flushItem struct {
	kv
	owner int
	// err is the outcome of the item's point write, set by the one chunk
	// writer that owns the item and read once the whole phase has returned.
	err error
}

// flushScratch is the working memory of one flushCommits call, pooled
// across flushes and nodes.
type flushScratch struct {
	// batch are the flush's member requests.
	batch []*commitReq
	// items are the phase being written, cut into chunks of at most
	// batchLimit() items.
	items []flushItem
	// maps are the BatchPut arguments, one per chunk of the phase, each
	// filled for its call and cleared after it: storage.Store.BatchPut may
	// neither retain nor mutate it. An engine without batch writes needs
	// none.
	maps []map[string][]byte
	// next hands a multi-call phase's chunks to the goroutines writing
	// them; wg waits for those goroutines.
	next atomic.Int64
	wg   sync.WaitGroup
	// visible collects the records the visibility phase installed.
	visible []*records.CommitRecord
	// calls counts the storage calls this flush issued, one per chunk (a
	// failed chunk's item-by-item retry not counted).
	calls int
}

var flushScratchPool = sync.Pool{New: func() any { return new(flushScratch) }}

// release returns sc to the pool holding no request, value or record.
func (sc *flushScratch) release() {
	clear(sc.batch)
	sc.batch = sc.batch[:0]
	clear(sc.visible)
	sc.visible = sc.visible[:0]
	sc.calls = 0
	flushScratchPool.Put(sc)
}

// maxCallsInFlight bounds the storage calls one write phase has outstanding
// at once. A phase of up to this many calls costs one round trip; a larger
// one — a 100-key commit on an engine without batch writes — one per this
// many calls.
const maxCallsInFlight = 32

// flush runs the write routine for req alone, on the caller's goroutine,
// and returns the transaction's outcome. A traced commit gets a gc.flush
// span whose calls annotation is the number of storage calls the flush
// sent: 1 on the one-call path, and on the ordered one 2, or more when a
// phase is several chunks.
func (n *Node) flush(ctx context.Context, req *commitReq) error {
	sp := telemetry.StartSpan(ctx, "gc.flush")
	sc := flushScratchPool.Get().(*flushScratch)
	sc.batch = append(sc.batch, req)
	n.flushCommits(ctx, sc)
	sp.Annotate("batch", "1")
	sp.Annotate("calls", strconv.Itoa(sc.calls))
	sp.End()
	sc.release()
	n.metrics.GroupFlushes.Add(1)
	n.metrics.GroupedCommits.Add(1)
	return req.err
}

// flushCommits runs one flush over sc.batch, leaving each member's outcome
// in its err; see the package comment for the phases and their ordering
// guarantees.
func (n *Node) flushCommits(ctx context.Context, sc *flushScratch) {
	if n.store.Capabilities().AtomicBatches {
		// One write phase: every transaction's data, then its record, in
		// one all-or-nothing call.
		n.flushPhase(ctx, sc, writesOf)
	} else {
		// Data phase: every transaction's data versions.
		n.flushPhase(ctx, sc, dataOf)
		// Record phase: commit records, only for transactions whose data
		// is fully durable (§3.3: the record is the visibility point).
		n.flushPhase(ctx, sc, recordOf)
	}

	// Visibility phase. Install each durable record into its stripes, then
	// hand the whole flush to the multicast queue in one append — one step
	// to a pruning multicast round (DrainPruned).
	n.announceMu.RLock()
	defer n.announceMu.RUnlock()
	for _, req := range sc.batch {
		if req.err != nil {
			continue
		}
		var buf [16]*stripe
		ss := n.appendStripes(buf[:0], req.rec.WriteSet)
		lockStripes(ss)
		n.installLocked(req.rec, ss)
		unlockStripes(ss)
		sc.visible = append(sc.visible, req.rec)
	}
	if len(sc.visible) > 0 {
		n.recMu.Lock()
		n.recent = append(n.recent, sc.visible...)
		n.recMu.Unlock()
	}
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

// flushPhase writes one phase's items for every not-yet-failed request,
// packing items from different transactions into chunks of the engine's
// batch limit, and sends every chunk at once: the phase costs the slowest
// call's round trip, not the sum of them. Once all calls have returned,
// each member takes the first failure among its items, in write order, as
// its outcome; a failed transaction's stray data stays invisible because
// its commit record is never written (§3.3).
func (n *Node) flushPhase(ctx context.Context, sc *flushScratch, itemsOf func(*commitReq) []kv) {
	for i, req := range sc.batch {
		if req.err != nil {
			continue
		}
		for _, it := range itemsOf(req) {
			sc.items = append(sc.items, flushItem{kv: it, owner: i})
		}
	}
	items := sc.items
	if len(items) == 0 {
		return
	}
	limit := n.batchLimit()
	calls := 1 + (len(items)-1)/limit
	if limit > 1 {
		for len(sc.maps) < calls {
			sc.maps = append(sc.maps, make(map[string][]byte))
		}
	}
	sc.next.Store(0)
	if workers := min(calls, maxCallsInFlight); workers > 1 {
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
	for _, it := range items {
		if it.err == nil {
			continue
		}
		if req := sc.batch[it.owner]; req.err == nil {
			what := "aft: persisting write set"
			if it.key == recordOf(req)[0].key {
				what = "aft: persisting commit record"
			}
			req.err = fmt.Errorf("%s: %w", what, it.err)
		}
	}
	sc.calls += calls
	clear(items)
	sc.items = items[:0]
}

// writeChunks writes chunks of limit items from items, taking the next
// unwritten one from sc.next until none is left.
func (n *Node) writeChunks(ctx context.Context, sc *flushScratch, items []flushItem, limit int) {
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
		n.writeChunk(ctx, items[lo:min(lo+limit, len(items))], m)
	}
}

// writeChunk writes one chunk in one storage call: a BatchPut of m, which
// it fills from items and clears again, or a point Put for a one-item
// chunk. It touches only its own items and m, so a phase's chunks run
// concurrently. A chunk that fails is retried item by item through the
// point API so each transaction learns ITS OWN outcome — a shared batch may
// apply partially (storage.go permits non-atomic batches), and
// blanket-failing the chunk would report commits failed whose records were
// in fact durably written (they would then resurface as committed via the
// fault-manager scan while the client retries under a new ID). The retry
// walks items in chunk order and skips whatever follows a member's first
// failure (a member's items sit together in a chunk), so on the one-call
// path a member whose data write fails never gets its record written.
func (n *Node) writeChunk(ctx context.Context, items []flushItem, m map[string][]byte) {
	var err error
	if len(items) > 1 {
		for _, it := range items {
			m[it.key] = it.val
		}
		sp := telemetry.StartSpan(ctx, "storage.batchput")
		sp.Annotate("items", strconv.Itoa(len(items)))
		err = n.store.BatchPut(ctx, m)
		sp.End()
		clear(m)
	}
	if len(items) == 1 || err != nil {
		// Solo items take the point API outright (a one-item batch buys
		// no round trip, and real engines price BatchWriteItem worse than
		// PutItem — an uncontended commit keeps the point-write storage
		// profile). Failed batches retry per item for per-transaction
		// attribution; re-writing items the partial batch already applied
		// is a harmless overwrite.
		failed := -1
		for i := range items {
			if it := &items[i]; it.owner != failed {
				if it.err = n.store.Put(ctx, it.key, it.val); it.err != nil {
					failed = it.owner
				}
			}
		}
	}
}
