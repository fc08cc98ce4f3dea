// Package core implements an AFT node: the fault-tolerance shim that
// interposes between a FaaS platform and a storage engine (§3 of the
// paper).
//
// Each node is composed of an atomic write buffer, a transaction manager,
// and a local metadata cache (Figure 1). The write buffer sequesters every
// transaction's updates until commit; the transaction manager tracks the
// key versions each transaction has read and enforces read atomic
// isolation via Algorithm 1; the metadata cache holds recently committed
// transaction records (the Commit Set Cache) and an index from each key to
// its known committed versions.
//
// The node guarantees, per §3.2:
//   - no dirty reads: reads only observe committed transactions;
//   - no fractured reads: every read set is an Atomic Readset;
//   - read-your-writes: a transaction observes its own latest buffered
//     write;
//   - repeatable read: re-reading a key returns the same version absent an
//     intervening self-write.
//
// Concurrency model: the metadata cache is partitioned across key-hash
// lock stripes (stripe.go) so reads, commits, merges, and GC sweeps on
// disjoint keys proceed in parallel; a small RWMutex-guarded node-level
// table holds transaction lifecycle state; and each commit runs the one
// write routine (flush.go) on its own goroutine.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/strhash"
	"aft/internal/telemetry"
)

// Errors returned by the node's transactional API.
var (
	// ErrTxnNotFound means the transaction ID is unknown to this node —
	// never started, already finished, or lost to a node failure (§3.3.1:
	// clients must redo the whole transaction).
	ErrTxnNotFound = errors.New("aft: transaction not found")
	// ErrTxnFinished means the transaction already committed or aborted.
	ErrTxnFinished = errors.New("aft: transaction already finished")
	// ErrKeyNotFound means no committed version of the key exists (the
	// NULL version, §3.2).
	ErrKeyNotFound = errors.New("aft: key not found")
	// ErrNoValidVersion means versions of the key exist but none is
	// compatible with the transaction's read set (§3.6); the paper
	// prescribes abort-and-retry.
	ErrNoValidVersion = errors.New("aft: no valid version for read set")
	// ErrVersionVanished means a selected version's payload was deleted
	// by the global GC between selection and fetch. The §5.2 unanimity
	// vote normally rules this out, but a node that installs a record
	// after voting to delete it — a standby's bootstrap, or a
	// partial-metadata storage fallback — races the deletion (akin to
	// §5.2.1's missing versions); clients should redo the transaction.
	ErrVersionVanished = errors.New("aft: version collected mid-read; retry transaction")
	// ErrOverloaded means admission control shed the request: the node is
	// at MaxConcurrent and the wait queue for a slot is already
	// AdmissionQueue deep. Fast-failing here instead of parking keeps
	// queueing delay bounded under overload; clients should retry after
	// backoff.
	ErrOverloaded = errors.New("aft: node overloaded; retry after backoff")
)

// Config parameterizes a node.
type Config struct {
	// NodeID names this replica; it must be unique within a deployment.
	NodeID string
	// Store is the shared storage backend. Required.
	Store storage.Store
	// Clock supplies commit timestamps; nil selects a process-wide
	// monotone wall clock.
	Clock idgen.Clock
	// EnableDataCache turns on the read data cache (§3.1, evaluated in
	// §6.2).
	EnableDataCache bool
	// DataCacheEntries bounds the data cache; 0 defaults to 4096 entries.
	DataCacheEntries int
	// SpillThreshold is the per-transaction buffered byte count above
	// which the Atomic Write Buffer proactively spills intermediary data
	// to storage (§3.3); 0 disables spilling.
	SpillThreshold int
	// MaxConcurrent bounds simultaneously executing transactions on this
	// node. It models the shared-data-structure contention that makes a
	// real node's throughput plateau near 40 clients (§6.5.1); 0 means
	// unbounded (unit tests).
	MaxConcurrent int
	// AdmissionQueue bounds how many StartTransaction callers may park
	// waiting for a MaxConcurrent slot; past the bound, new arrivals
	// fast-fail with ErrOverloaded instead of queueing without limit
	// (graceful shedding beats unbounded queueing delay under overload).
	// 0 preserves the historical behavior: callers park until a slot
	// frees or their ctx is done. Meaningless when MaxConcurrent is 0.
	AdmissionQueue int
	// BootstrapLimit bounds how many commit records Bootstrap reads from
	// the Transaction Commit Set, newest first ("it bootstraps itself by
	// reading the latest records", §3.1); 0 reads everything. Replacement
	// nodes in large deployments set a limit so warm-up stays bounded;
	// older transactions are recovered on demand: truncation flips the
	// node into partial-metadata mode, so reads of keys whose records were
	// dropped fall back to the Transaction Commit Set in storage
	// (read.go), and the fault manager's scan re-announces anything
	// missed. Truncations are counted in NodeMetrics.BootstrapTruncated.
	BootstrapLimit int
	// MetadataBudgetBytes bounds the node's approximate metadata memory:
	// cached commit records (commit cache + version index) plus the read
	// data cache. EnforceBudget (budget.go) sheds data-cache entries and
	// spills cold commit records back to storage-resident form when the
	// budget is exceeded, and StartTransaction sheds retriable
	// ErrOverloaded past a 25% hard ceiling. 0 means unbounded.
	MetadataBudgetBytes int64
	// IDEntropySeed, when non-zero, makes transaction-UUID entropy a
	// seeded deterministic stream (mixed with the node ID, so replicas
	// sharing a seed still mint distinct IDs). Paired with a
	// deterministic Clock this makes every ID — and therefore every
	// storage key — bit-for-bit reproducible, which the chaos harness
	// requires; 0 keeps crypto randomness.
	IDEntropySeed int64
	// Tracer, when non-nil, opens a trace per transaction and records
	// layer spans into it (telemetry.Tracer retains sampled and slow
	// traces for /traces). Nil disables tracing: every span call costs a
	// nil check.
	Tracer *telemetry.Tracer
	// Events, when non-nil, is the flight-recorder journal the node
	// reports discrete anomalies into (transaction sheds, metadata-
	// budget spills). Nil disables journaling at the cost of one nil
	// check per site.
	Events *telemetry.Journal
	// DisableTelemetry skips the node's latency histograms (three atomic
	// adds per op), the measurable baseline for the instrumentation-
	// overhead benchmark. Counters in NodeMetrics are always maintained.
	DisableTelemetry bool
}

// Node is a single AFT replica.
type Node struct {
	cfg   Config
	store storage.Store
	gen   *idgen.Generator
	clock idgen.Clock
	sem   chan struct{} // nil when MaxConcurrent == 0
	// waiting counts callers parked in acquire for a sem slot; the
	// admission bound sheds arrivals that would push it past
	// cfg.AdmissionQueue.
	waiting atomic.Int64
	// stopped is closed by Stop; it wakes callers parked for a sem slot.
	stopped  chan struct{}
	stopOnce sync.Once

	// stripes is the lock-striped metadata core: Commit Set Cache,
	// key-version index, and locally-deleted markers, partitioned by key
	// hash (stripe.go). metaCount tracks the number of distinct cached
	// commit records (each record is registered in every stripe its
	// write set touches).
	stripes   []*stripe
	metaCount atomic.Int64
	// installSeq numbers the versions this node makes visible: each
	// install takes the next value, and a transaction remembers the value
	// current when it started, so the local sweep can tell which versions
	// were visible to it (SweepLocalMetadata).
	installSeq atomic.Uint64
	// metaBytes approximates the resident bytes of cached commit records
	// (records.CommitRecord.ApproxBytes, counted once per record at
	// install/remove); together with the data cache's byte count it is
	// what MetadataBudgetBytes budgets.
	metaBytes atomic.Int64

	// partialMeta, once set, records that this node's in-memory metadata
	// is a subset of the Transaction Commit Set: a truncated bootstrap
	// (BootstrapLimit) skipped history, or the memory budget spilled cold
	// records. Reads that miss locally then fall back to storage
	// (read.go). Sticky by design — the fallback is also what makes the
	// skip/spill safe.
	partialMeta atomic.Bool

	// tmu guards the transaction lifecycle table: in-flight transactions
	// by UUID, plus the finished-transaction map that makes Commit
	// idempotent under client retries (§3.1). Per-transaction session
	// state is guarded by each txnState's own mutex.
	tmu             sync.RWMutex
	txns            map[string]*txnState
	committedByUUID map[string]idgen.ID

	// pinMu guards readers: the count of active local transactions that
	// have read from a committed transaction's write set; the local GC
	// must not delete a transaction's metadata while pinned (§5.1).
	pinMu   sync.Mutex
	readers map[idgen.ID]int

	// recMu guards recent: commit records accumulated since the last
	// Drain, feeding the multicast protocol (§4) and the fault manager
	// stream (§4.2). The write routine appends each commit's record.
	recMu  sync.Mutex
	recent []*records.CommitRecord
	// announceMu makes a flush's install-then-queue one step as far as a
	// pruning multicast round can tell: flushes hold it shared, and
	// DrainPruned holds it exclusively across its drain and supersedence
	// checks.
	announceMu sync.RWMutex

	// fetchMu guards fetching: the singleflight table of in-progress
	// cold-key metadata recoveries (read.go). One entry per key; waiters
	// block on the entry's done channel instead of issuing their own
	// List+BatchGet storm.
	fetchMu  sync.Mutex
	fetching map[string]*fetchCall

	data *dataCache // nil when disabled

	metrics NodeMetrics

	// tracer and the latency histograms are nil when disabled; all their
	// methods are nil-safe, so the hot paths carry no branching beyond
	// the calls themselves.
	tracer    *telemetry.Tracer
	latCommit *telemetry.Histogram
	latRead   *telemetry.Histogram
}

// NodeMetrics exposes node-level counters for the evaluation harness. All
// fields are updated atomically — the counters sit on every hot path and
// must not introduce a shared lock.
type NodeMetrics struct {
	Started           atomic.Int64
	Committed         atomic.Int64
	Aborted           atomic.Int64
	Reads             atomic.Int64
	CacheHits         atomic.Int64
	Spills            atomic.Int64
	MergedRemote      atomic.Int64
	PrunedMerges      atomic.Int64
	SweptMetadata     atomic.Int64
	RemoteFetches     atomic.Int64 // reads that recovered metadata from storage
	CoalescedFetches  atomic.Int64 // cold reads that joined another read's in-flight recovery
	BatchedRecordGets atomic.Int64 // commit records fetched through batched reads
	MultiGets         atomic.Int64 // MultiGet calls (Reads counts their keys individually)
	GroupFlushes      atomic.Int64 // runs of the write routine
	GroupedCommits    atomic.Int64 // commits written by those runs (one each)
	OverloadShed      atomic.Int64 // arrivals shed by admission control (ErrOverloaded)
	DeadlineExceeded  atomic.Int64 // ops abandoned at a ctx-deadline check
	ReapedExpired     atomic.Int64 // dangling transactions aborted past their deadline

	BootstrapTruncated atomic.Int64 // commit records dropped by BootstrapLimit
	SpilledRecords     atomic.Int64 // cached commit records spilled by the memory budget
	BudgetShed         atomic.Int64 // arrivals shed past the metadata-budget hard ceiling
}

// NodeMetricsSnapshot is a point-in-time copy of NodeMetrics.
type NodeMetricsSnapshot struct {
	Started, Committed, Aborted, Reads, CacheHits, Spills,
	MergedRemote, PrunedMerges, SweptMetadata,
	RemoteFetches, CoalescedFetches,
	BatchedRecordGets, MultiGets,
	GroupFlushes, GroupedCommits,
	OverloadShed, DeadlineExceeded, ReapedExpired,
	BootstrapTruncated, SpilledRecords, BudgetShed int64
}

// Snapshot returns a copy of the counters.
func (m *NodeMetrics) Snapshot() NodeMetricsSnapshot {
	return NodeMetricsSnapshot{
		Started:           m.Started.Load(),
		Committed:         m.Committed.Load(),
		Aborted:           m.Aborted.Load(),
		Reads:             m.Reads.Load(),
		CacheHits:         m.CacheHits.Load(),
		Spills:            m.Spills.Load(),
		MergedRemote:      m.MergedRemote.Load(),
		PrunedMerges:      m.PrunedMerges.Load(),
		SweptMetadata:     m.SweptMetadata.Load(),
		RemoteFetches:     m.RemoteFetches.Load(),
		CoalescedFetches:  m.CoalescedFetches.Load(),
		BatchedRecordGets: m.BatchedRecordGets.Load(),
		MultiGets:         m.MultiGets.Load(),
		GroupFlushes:      m.GroupFlushes.Load(),
		GroupedCommits:    m.GroupedCommits.Load(),
		OverloadShed:      m.OverloadShed.Load(),
		DeadlineExceeded:  m.DeadlineExceeded.Load(),
		ReapedExpired:     m.ReapedExpired.Load(),

		BootstrapTruncated: m.BootstrapTruncated.Load(),
		SpilledRecords:     m.SpilledRecords.Load(),
		BudgetShed:         m.BudgetShed.Load(),
	}
}

// NewNode constructs a node. The node is usable immediately; call Bootstrap
// to warm the metadata cache from the Transaction Commit Set in storage
// (required when recovering or joining an existing deployment, §3.1).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("core: Config.Store is required")
	}
	if cfg.NodeID == "" {
		return nil, fmt.Errorf("core: Config.NodeID is required")
	}
	clock := cfg.Clock
	n := &Node{
		cfg:             cfg,
		store:           cfg.Store,
		gen:             idgen.NewGenerator(clock, cfg.NodeID),
		clock:           clock,
		stripes:         make([]*stripe, numStripes),
		txns:            make(map[string]*txnState),
		committedByUUID: make(map[string]idgen.ID),
		readers:         make(map[idgen.ID]int),
		fetching:        make(map[string]*fetchCall),
		stopped:         make(chan struct{}),
	}
	for i := range n.stripes {
		n.stripes[i] = newStripe()
	}
	if cfg.IDEntropySeed != 0 {
		n.gen.SeedEntropy(cfg.IDEntropySeed ^ int64(strhash.FNV32a(cfg.NodeID)))
	}
	if cfg.EnableDataCache {
		entries := cfg.DataCacheEntries
		if entries == 0 {
			entries = 4096
		}
		n.data = newDataCache(entries)
	}
	if cfg.MaxConcurrent > 0 {
		n.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	n.tracer = cfg.Tracer
	if !cfg.DisableTelemetry {
		n.latCommit = telemetry.NewHistogram(nil)
		n.latRead = telemetry.NewHistogram(nil)
	}
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() string { return n.cfg.NodeID }

// Store returns the node's storage backend.
func (n *Node) Store() storage.Store { return n.store }

// Metrics returns the node's counters.
func (n *Node) Metrics() *NodeMetrics { return &n.metrics }

// Stop takes the node out of service: every caller parked for a
// MaxConcurrent slot, now or later, fails with ErrTxnNotFound — the
// transaction it was about to start is lost to the node's failure, and
// the client redoes it elsewhere (§3.3.1). A killed node's slots may be
// held by transactions whose clients have already moved on, so without
// Stop its waiters would park forever. Admitted transactions are
// unaffected. Stop is idempotent.
func (n *Node) Stop() { n.stopOnce.Do(func() { close(n.stopped) }) }

// acquire takes a concurrency slot, honoring ctx cancellation. With
// AdmissionQueue set, at most that many callers park waiting for a slot;
// an arrival that would deepen the queue further is shed with
// ErrOverloaded so overload degrades into fast, retriable failures
// instead of unbounded queueing.
func (n *Node) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		n.metrics.DeadlineExceeded.Add(1)
		return err
	}
	if n.sem == nil {
		return nil
	}
	select {
	case n.sem <- struct{}{}:
		return nil
	default:
	}
	// The fast path failed: some slots may be held not by live work but
	// by abandoned sessions — transactions whose client gave up (lease
	// expired) and is redoing under a fresh ID. Reap them before queueing
	// or shedding, or a burst of lost acks (a gray partition swallowing
	// responses) wedges admission permanently: the abandoned transactions
	// hold every slot, and a caller relying only on periodic maintenance
	// reaping may never get a slot to reach its next maintenance point.
	if n.ReapExpired(ctx, 0) > 0 {
		select {
		case n.sem <- struct{}{}:
			return nil
		default:
		}
	}
	if q := n.cfg.AdmissionQueue; q > 0 {
		if int(n.waiting.Add(1)) > q {
			n.waiting.Add(-1)
			n.metrics.OverloadShed.Add(1)
			n.cfg.Events.Record(telemetry.EventTxnShed, n.cfg.NodeID, "",
				"reason", "admission_queue")
			return ErrOverloaded
		}
		defer n.waiting.Add(-1)
	}
	select {
	case n.sem <- struct{}{}:
		return nil
	case <-n.stopped:
		return fmt.Errorf("aft: node %s stopped: %w", n.cfg.NodeID, ErrTxnNotFound)
	case <-ctx.Done():
		n.metrics.DeadlineExceeded.Add(1)
		return ctx.Err()
	}
}

// AdmissionWaiting returns the number of callers currently parked for a
// concurrency slot (the queue the admission bound limits).
func (n *Node) AdmissionWaiting() int { return int(n.waiting.Load()) }

// checkCtx abandons an op whose ctx is already done — the client gave up
// (its deadline rode the wire) — counting it in DeadlineExceeded.
func (n *Node) checkCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		n.metrics.DeadlineExceeded.Add(1)
		return err
	}
	return nil
}

func (n *Node) release() {
	if n.sem != nil {
		<-n.sem
	}
}

// MergeRemoteCommits installs commit records learned from peers (multicast,
// §4) or from the fault manager (§4.2). Records superseded by local state
// are dropped without installation (§4.1). Each record locks only its own
// stripes, so merges proceed concurrently with reads and commits on other
// keys.
func (n *Node) MergeRemoteCommits(recs []*records.CommitRecord) {
	var merged, prunedMerges int64
	for _, rec := range recs {
		if rec == nil {
			continue
		}
		// A record carrying a sampled trace ID attributes its delivery
		// back to the originating trace: the peer-side span is what lets
		// /traces show a commit's multicast fan-out across nodes. The
		// common untraced record pays one string comparison.
		var deliveryStart time.Time
		traced := rec.TraceID != "" && n.tracer != nil
		if traced {
			deliveryStart = time.Now()
		}
		outcome := "dropped"
		var buf [16]*stripe
		ss := n.appendStripes(buf[:0], rec.WriteSet)
		lockStripes(ss)
		if n.supersededLocked(rec) {
			// A record pruned at merge time was never cached here, so
			// from the global GC's perspective this node has already
			// "locally deleted" it (§5.2 unanimity check). The entry is
			// cleared by ForgetDeleted once the global GC acts.
			markUncachedDeletedLocked(rec, ss)
			prunedMerges++
			outcome = "pruned"
		} else if n.installLocked(rec, ss) {
			merged++
			outcome = "merged"
		}
		unlockStripes(ss)
		if traced {
			n.tracer.ForeignSpan(rec.TraceID, "multicast.delivery",
				deliveryStart, time.Since(deliveryStart),
				map[string]string{"tx": rec.UUID, "from": rec.Node, "outcome": outcome})
		}
	}
	n.metrics.MergedRemote.Add(merged)
	n.metrics.PrunedMerges.Add(prunedMerges)
}

// SkipPruned learns of records a peer's broadcast round pruned as
// superseded (§4.1): they will never be delivered here, so each one this
// node does not cache counts as locally deleted — as MergeRemoteCommits
// counts a record it prunes itself. Without this the global GC's unanimity
// vote (§5.2) would wait on them forever, and the oldest-first round would
// stall behind them.
func (n *Node) SkipPruned(recs []*records.CommitRecord) {
	var buf [16]*stripe
	for _, rec := range recs {
		ss := n.appendStripes(buf[:0], rec.WriteSet)
		lockStripes(ss)
		markUncachedDeletedLocked(rec, ss)
		unlockStripes(ss)
	}
}

// markUncachedDeletedLocked records rec as locally deleted in its stripes
// ss unless this node caches it; the caller holds their write locks.
func markUncachedDeletedLocked(rec *records.CommitRecord, ss []*stripe) {
	if _, known := ss[0].commits[rec.ID()]; known {
		return
	}
	for _, s := range ss {
		s.locallyDeleted[rec.ID()] = rec
	}
}

// supersededLocked implements Algorithm 2: a transaction is superseded when
// every key it wrote has a committed version newer than the transaction's.
// The caller must hold (at least read) locks covering all of rec's stripes.
func (n *Node) supersededLocked(rec *records.CommitRecord) bool {
	id := rec.ID()
	if len(rec.WriteSet) == 0 {
		return true
	}
	for _, k := range rec.WriteSet {
		latest, ok := n.stripeFor(k).index.latest(k)
		if !ok || !id.Less(latest) {
			return false
		}
	}
	return true
}

// IsSuperseded reports whether rec is superseded by this node's local state
// (Algorithm 2).
func (n *Node) IsSuperseded(rec *records.CommitRecord) bool {
	var buf [16]*stripe
	ss := n.appendStripes(buf[:0], rec.WriteSet)
	rlockStripes(ss)
	defer runlockStripes(ss)
	return n.supersededLocked(rec)
}

// Drain returns the commit records accumulated since the last Drain and
// clears the queue. The multicast layer prunes superseded entries before
// broadcasting to peers (§4.1) but forwards the full set to the fault
// manager (§4.2). Callers must treat the returned slice as read-only:
// PendingAnnounce hands out views of the same array.
func (n *Node) Drain() []*records.CommitRecord {
	n.recMu.Lock()
	out := n.recent
	n.recent = nil
	n.recMu.Unlock()
	return out
}

// DrainPruned is Drain for a multicast round that prunes (§4.1), with
// superseded[i] = IsSuperseded(recs[i]). It classifies and drains while no
// flush is between installing its records and queueing them, so a local
// commit that supersedes a drained record is itself in this drain or an
// earlier one: the round that prunes a record delivers, or already
// delivered, what supersedes it. It classifies the queue before draining
// it — nothing can join the queue in between — so the records leave
// PendingAnnounce only when the round is about to hand them to the tap,
// as with Drain.
func (n *Node) DrainPruned() ([]*records.CommitRecord, []bool) {
	n.announceMu.Lock()
	defer n.announceMu.Unlock()
	queued := n.PendingAnnounce()
	superseded := make([]bool, len(queued))
	for i, rec := range queued {
		superseded[i] = n.IsSuperseded(rec)
	}
	return n.Drain(), superseded
}

// PendingAnnounce returns the announce queue: records this node committed
// since the last Drain, which its next multicast round hands to the fault
// manager's tap. The fault manager's storage scan skips them — they are
// not lost, only not yet announced. The result is a read-only view shared
// with the queue; it stays valid without recMu because the queue is only
// ever appended to past the view's length or replaced by Drain, and no
// consumer of a drained slice rewrites its elements.
func (n *Node) PendingAnnounce() []*records.CommitRecord {
	n.recMu.Lock()
	q := n.recent
	n.recMu.Unlock()
	return q
}

// KnownCommits returns a snapshot of the Commit Set Cache in ascending ID
// order.
func (n *Node) KnownCommits() []*records.CommitRecord {
	byID := n.snapshotRecords()
	out := make([]*records.CommitRecord, 0, len(byID))
	for _, rec := range byID {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID().Less(out[j].ID()) })
	return out
}

// MetadataSize returns the number of cached commit records (the quantity
// the local GC bounds, §5.1).
func (n *Node) MetadataSize() int {
	return int(n.metaCount.Load())
}

// SweepLocalMetadata runs one pass of the local metadata GC (§5.1): for
// each cached committed transaction, oldest first, if it is superseded
// (Algorithm 2), no active transaction has read from its write set and no
// active transaction may still need it (retirableLocked), its metadata is
// removed from the Commit Set Cache and key-version index, its cached data
// is evicted, and it is recorded in the locally-deleted list for the global
// GC (§5.2). At most limit transactions are removed per pass (0 means
// unlimited). It returns the removed transaction IDs.
//
// The sweep locks one record's stripes at a time: candidates come from a
// lock-free-ish snapshot and every check (presence, reader pins,
// supersedence) is re-run under the record's write locks before removal,
// so concurrent reads and commits on other stripes never stall behind a
// sweep.
func (n *Node) SweepLocalMetadata(limit int) []idgen.ID {
	horizon := n.sweepHorizon()
	byID := n.snapshotRecords()
	ids := make([]idgen.ID, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	// Oldest first: mitigates the §5.2.1 missing-version pitfall.
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	var removed []idgen.ID
	for _, id := range ids {
		if limit > 0 && len(removed) >= limit {
			break
		}
		rec := byID[id]
		var buf [16]*stripe
		ss := n.appendStripes(buf[:0], rec.WriteSet)
		lockStripes(ss)
		if _, still := ss[0].commits[id]; !still {
			unlockStripes(ss)
			continue // removed concurrently since the snapshot
		}
		n.pinMu.Lock()
		pinned := n.readers[id] > 0
		n.pinMu.Unlock()
		if pinned {
			unlockStripes(ss)
			continue // pinned by an active reader (§5.1)
		}
		if !n.supersededLocked(rec) || !n.retirableLocked(rec, horizon) {
			unlockStripes(ss)
			continue
		}
		n.removeLocked(rec, ss, true)
		unlockStripes(ss)
		removed = append(removed, id)
	}
	if len(removed) > 0 {
		n.tmu.Lock()
		for _, id := range removed {
			delete(n.committedByUUID, id.UUID)
		}
		n.tmu.Unlock()
	}
	n.metrics.SweptMetadata.Add(int64(len(removed)))
	return removed
}

// maxSweepHold bounds how long a transaction whose operations carry no
// deadline holds the local sweep back (sweepHorizon); a transaction with a
// lease holds it until the lease passes.
const maxSweepHold = 10 * time.Second

// sweepHorizon returns the install sequence at which the oldest live
// transaction started, or the largest sequence when none is live. A
// transaction past its lease, or older than maxSweepHold without one, is
// presumed abandoned and does not count: it cannot hold the sweep back
// forever, and if it does come back it may find no valid version and
// abort (§3.6).
func (n *Node) sweepHorizon() uint64 {
	now := time.Now().UnixNano()
	horizon := uint64(math.MaxUint64)
	n.tmu.RLock()
	for _, t := range n.txns {
		if dl := t.deadline.Load(); (dl != 0 && now > dl) || (dl == 0 && now-t.startedAt > int64(maxSweepHold)) {
			continue
		}
		horizon = min(horizon, t.startSeq)
	}
	n.tmu.RUnlock()
	return horizon
}

// retirableLocked reports whether no live transaction can need rec: on
// each of its keys, the next newer version was installed no later than
// horizon (sweepHorizon), so every live transaction could see it from its
// start. Algorithm 1 then keeps a valid version of every key at or above
// what each live transaction saw when it started: a transaction that read
// a key at an old version — which makes every newer version cowritten with
// that key invalid for it (case 2 of Theorem 1's proof) — still finds the
// old versions of the newer writes' other keys. Timestamps cannot decide
// this: multicast delivers a peer's commits here late, so a version's ID
// says nothing about when this node's transactions could first see it.
// The caller holds write locks covering rec's stripes.
func (n *Node) retirableLocked(rec *records.CommitRecord, horizon uint64) bool {
	id := rec.ID()
	for _, k := range rec.WriteSet {
		s := n.stripeFor(k)
		for _, v := range s.index.atLeast(k, id) {
			if id.Less(v) {
				if s.installed[v] > horizon {
					return false
				}
				break
			}
		}
	}
	return true
}

// LocallyDeleted reports, aligned with recs, whether this node's local GC
// has deleted each transaction (§5.2: the global GC deletes data only once
// all nodes have). Each probe takes one stripe's read lock (see
// homeStripe).
func (n *Node) LocallyDeleted(recs []*records.CommitRecord) []bool {
	out := make([]bool, len(recs))
	for i, rec := range recs {
		s := n.homeStripe(rec)
		s.mu.RLock()
		_, out[i] = s.locallyDeleted[rec.ID()]
		s.mu.RUnlock()
	}
	return out
}

// ForgetDeleted clears locally-deleted bookkeeping — and any retained
// commit-idempotency markers — after the global GC has removed the
// transactions' data from storage. Each record write-locks only its own
// stripes, all at once, so the all-or-none marker invariant holds against
// a concurrent merge.
func (n *Node) ForgetDeleted(recs []*records.CommitRecord) {
	var buf [16]*stripe
	for _, rec := range recs {
		ss := n.appendStripes(buf[:0], rec.WriteSet)
		lockStripes(ss)
		for _, s := range ss {
			delete(s.locallyDeleted, rec.ID())
		}
		unlockStripes(ss)
	}
	n.tmu.Lock()
	for _, rec := range recs {
		delete(n.committedByUUID, rec.UUID)
	}
	n.tmu.Unlock()
}

// ActiveTransactions returns the number of in-flight transactions.
func (n *Node) ActiveTransactions() int {
	n.tmu.RLock()
	defer n.tmu.RUnlock()
	return len(n.txns)
}
