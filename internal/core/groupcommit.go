package core

// groupcommit.go implements the node's group-commit pipeline: concurrently
// committing transactions coalesce their storage writes into shared
// BatchPut round trips, the multi-transaction generalization of the
// per-transaction write batching the paper evaluates in §6.1.1.
//
// The pipeline is leader-based (the classic WAL group-commit shape; no
// persistent background goroutine or shutdown hook — the only goroutines
// it spawns are short-lived drainers, started when a leader leaves work
// queued behind it, that exit once the queue empties): a committing
// goroutine enqueues its request and, if a flusher slot is free, becomes a
// flusher; it drains the queue, performs the batched writes for the
// drained transactions, and signals each waiter. Transactions that arrive
// while every flusher is busy queue up for the next drain, so batch sizes
// grow naturally with concurrency and a solo commit flushes immediately
// with no added round trips and no goroutine.
//
// Unlike a WAL (one disk head), the storage engines here accept parallel
// writes, so flushes need not serialize behind a single leader — §3.3
// orders only a transaction's OWN data before its OWN record. Up to
// max(defaultFlushers, MaxConcurrent) flushes run concurrently, so the
// pipeline never caps storage concurrency below the node's configured
// client concurrency. Each flush takes at most maxGroupedCommits
// transactions so a deep backlog cannot inflate one flush's latency.
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
//     record per member again.
//
// Only then does the visibility phase install the records into the metadata
// stripes and enqueue the whole flush as ONE append to the multicast queue.
// The write phases take no node lock; the visibility phase takes announceMu
// shared, each record's stripes in the order stripe.go fixes, then recMu, on
// either path.
//
// flushCommits is the node's one write routine: the direct path (engines
// without a batch primitive) runs it over a one-request batch. Its working
// memory — the member list, the current chunk's items and the map handed
// to BatchPut — is a pooled flushScratch, so a flush allocates nothing of
// its own.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
	// trace, when non-nil, receives a retroactive gc.flush span: the
	// flush runs under one member's goroutine, but every traced member
	// should see how long its batch's storage writes took.
	trace *telemetry.Trace

	// err is the transaction's own outcome. A group flush writes it, then
	// sets resolved and releases done; the submitter reads it after
	// observing either. A WaitGroup and a flag stand in for a channel
	// because they live inside the request and cost no allocation.
	err      error
	resolved atomic.Bool
	done     sync.WaitGroup
}

func dataOf(req *commitReq) []kv   { return req.writes[:len(req.writes)-1] }
func recordOf(req *commitReq) []kv { return req.writes[len(req.writes)-1:] }
func writesOf(req *commitReq) []kv { return req.writes }

// flushItem is one pending write of the chunk being assembled, with the
// index in flushScratch.batch of the request that owns it.
type flushItem struct {
	kv
	owner int
}

// flushScratch is the working memory of one flushCommits call, pooled
// across flushes and nodes.
type flushScratch struct {
	// batch are the flush's member requests.
	batch []*commitReq
	// items is the chunk being assembled: at most batchLimit() writes.
	items []flushItem
	// chunk is the BatchPut argument, refilled from items for every call
	// and cleared after it: storage.Store.BatchPut may neither retain nor
	// mutate it.
	chunk map[string][]byte
	// visible collects the records the visibility phase installed.
	visible []*records.CommitRecord
	// calls counts the chunks this flush has written, each one storage
	// round trip the flush waited out.
	calls int
}

var flushScratchPool = sync.Pool{New: func() any {
	return &flushScratch{chunk: make(map[string][]byte)}
}}

// release returns sc to the pool holding no request, value or record.
func (sc *flushScratch) release() {
	clear(sc.batch)
	sc.batch = sc.batch[:0]
	clear(sc.visible)
	sc.visible = sc.visible[:0]
	sc.calls = 0
	flushScratchPool.Put(sc)
}

// maxGroupedCommits bounds one flush: with DynamoDB's 25-item batch limit
// a full group is 2-3 data round trips plus the shared record write.
const maxGroupedCommits = 32

// defaultFlushers is the concurrent-flush default. A committing client
// must wait out the in-progress flush before its own can start, so with F
// flushers a closed-loop client's cycle is ~(1 + 1/(2F)) flush times:
// F = 8 keeps that overhead under ~6% of the direct path's while still
// coalescing clients/F commits per flush under load.
const defaultFlushers = 8

// groupCommitter holds the pipeline's queue and flusher accounting.
type groupCommitter struct {
	mu       sync.Mutex
	queue    []*commitReq
	flushers int
}

// groupCommit submits req and blocks until a flush has processed it,
// returning the transaction's own outcome. The storage round trips of a
// flush run under the flushing goroutine's ctx; a commit that fails
// because another goroutine's ctx was canceled sees that error, its
// transaction stays live, and a retry (likely flushing for itself)
// re-submits the writes.
//
// A committing client flushes only until its own request resolves. If the
// queue is empty then — always, for a solo commit — it releases its
// flusher slot and returns; otherwise the slot transfers to a detached
// drainer goroutine (which exits as soon as the queue empties), so a
// client's commit latency is bounded by its own flush rounds rather than
// by how fast other clients keep the queue full.
func (n *Node) groupCommit(ctx context.Context, req *commitReq) error {
	req.done.Add(1)
	c := &n.committer
	c.mu.Lock()
	c.queue = append(c.queue, req)
	if c.flushers >= n.flusherLimit {
		c.mu.Unlock()
		req.done.Wait()
		return req.err
	}
	c.flushers++
	c.mu.Unlock()
	for !req.resolved.Load() {
		if !n.flushNextBatch(ctx) {
			// Queue empty, slot released: a concurrent flusher took our
			// request.
			req.done.Wait()
			return req.err
		}
	}
	c.mu.Lock()
	if len(c.queue) == 0 {
		c.flushers--
		c.mu.Unlock()
		return req.err
	}
	c.mu.Unlock()
	// The drainer runs detached from any client ctx.
	go n.drainQueue(context.Background())
	return req.err
}

// flushNextBatch takes one batch off the queue and flushes it, reporting
// whether there was work. An empty queue releases the caller's flusher
// slot.
func (n *Node) flushNextBatch(ctx context.Context) bool {
	c := &n.committer
	c.mu.Lock()
	take := min(len(c.queue), maxGroupedCommits)
	if take == 0 {
		c.flushers--
		c.mu.Unlock()
		return false
	}
	sc := flushScratchPool.Get().(*flushScratch)
	sc.batch = append(sc.batch, c.queue[:take]...)
	// Shift the remainder down instead of re-slicing, so the queue keeps
	// its backing array from one flush to the next.
	rest := copy(c.queue, c.queue[take:])
	clear(c.queue[rest:])
	c.queue = c.queue[:rest]
	c.mu.Unlock()
	n.metrics.GroupFlushes.Add(1)
	n.metrics.GroupedCommits.Add(int64(take))
	start := time.Now()
	n.flushCommits(ctx, sc)
	n.traceFlush(sc, start, time.Since(start))
	for _, req := range sc.batch {
		req.resolved.Store(true)
		req.done.Done()
	}
	sc.release()
	return true
}

// drainQueue runs flushes until the queue empties, then exits. It owns a
// flusher slot transferred from a client whose request already resolved.
func (n *Node) drainQueue(ctx context.Context) {
	for n.flushNextBatch(ctx) {
	}
}

// commitDirect runs the write routine for req alone, on the caller's
// goroutine and outside the pipeline's queue.
func (n *Node) commitDirect(ctx context.Context, req *commitReq) error {
	sc := flushScratchPool.Get().(*flushScratch)
	sc.batch = append(sc.batch, req)
	n.flushCommits(ctx, sc)
	sc.release()
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

// traceFlush gives every traced member of a group flush a gc.flush span.
// One flush serves many coalesced transactions; the shared flush ID (plus
// the co-flushed traces' IDs) lets the stitched view link every member
// trace to the same storage round trips. The ID and peer list are built
// only when at least one member is traced. The calls annotation is the
// number of storage round trips the flush waited out one after another: 1
// on the one-call path, 2 or more on the ordered one.
func (n *Node) traceFlush(sc *flushScratch, start time.Time, dur time.Duration) {
	batch := sc.batch
	var flushID, peers string
	for _, req := range batch {
		if req.trace == nil {
			continue
		}
		if flushID == "" {
			flushID = strconv.FormatUint(n.flushSeq.Add(1), 10)
			var ids []string
			for _, other := range batch {
				if id := other.trace.ID(); id != "" {
					ids = append(ids, id)
				}
			}
			peers = strings.Join(ids, ",")
		}
		req.trace.AddSpan("gc.flush", start, dur,
			map[string]string{
				"batch": strconv.Itoa(len(batch)),
				"calls": strconv.Itoa(sc.calls),
				"flush": flushID,
				"peers": peers,
			})
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
// batch limit. A failed transaction's remaining items are skipped; its stray
// data stays invisible because its commit record is never written (§3.3).
func (n *Node) flushPhase(ctx context.Context, sc *flushScratch, itemsOf func(*commitReq) []kv) {
	limit := n.batchLimit()
	for i, req := range sc.batch {
		if req.err != nil {
			continue
		}
		for _, it := range itemsOf(req) {
			sc.items = append(sc.items, flushItem{kv: it, owner: i})
			if len(sc.items) >= limit {
				n.writeChunk(ctx, sc)
				if req.err != nil {
					break // this transaction already failed; skip its rest
				}
			}
		}
	}
	n.writeChunk(ctx, sc)
}

// writeChunk writes sc.items and empties it. A chunk that fails is retried
// item by item through the point API so each transaction learns ITS OWN
// outcome — a shared batch may apply partially (storage.go permits
// non-atomic batches), and blanket-failing the chunk would report commits
// failed whose records were in fact durably written (they would then
// resurface as committed via the fault-manager scan while the client
// retries under a new ID). The retry walks items in chunk order and skips
// whatever follows a member's first failure, so on the one-call path a
// member whose data write fails never gets its record written.
func (n *Node) writeChunk(ctx context.Context, sc *flushScratch) {
	items := sc.items
	if len(items) == 0 {
		return
	}
	sc.calls++
	var err error
	if len(items) > 1 {
		for _, it := range items {
			sc.chunk[it.key] = it.val
		}
		sp := telemetry.StartSpan(ctx, "storage.batchput")
		sp.Annotate("items", strconv.Itoa(len(items)))
		err = n.store.BatchPut(ctx, sc.chunk)
		sp.End()
		clear(sc.chunk)
	}
	if len(items) == 1 || err != nil {
		// Solo items take the point API outright (a one-item batch buys
		// no round trip, and real engines price BatchWriteItem worse than
		// PutItem — an uncontended commit keeps the point-write storage
		// profile). Failed batches retry per item for per-transaction
		// attribution; re-writing items the partial batch already applied
		// is a harmless overwrite.
		for _, it := range items {
			req := sc.batch[it.owner]
			if req.err != nil {
				continue
			}
			if perr := n.store.Put(ctx, it.key, it.val); perr != nil {
				what := "aft: persisting write set"
				if it.key == recordOf(req)[0].key {
					what = "aft: persisting commit record"
				}
				req.err = fmt.Errorf("%s: %w", what, perr)
			}
		}
	}
	clear(items)
	sc.items = items[:0]
}
