package core

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/telemetry"
)

// txnState is one in-flight transaction's session state. A logical request
// may span multiple FaaS functions; all of them address the same node with
// the same transaction ID, so the state below is the "distributed client
// session" of §2.2.
//
// Each transaction carries its own mutex: operations of one transaction
// serialize on it (the paper's functions run sequentially within a logical
// request anyway), while operations of different transactions only meet at
// the metadata stripes. t.mu is the outermost lock in the node's lock
// order (see stripe.go) — it may be held while taking stripe locks, never
// the reverse.
type txnState struct {
	uuid    string
	startTS int64
	// startSeq is the node's install sequence when the transaction
	// started, and startedAt the wall clock then (UnixNano): the local
	// sweep keeps every version a live transaction may need
	// (Node.sweepHorizon).
	startSeq  uint64
	startedAt int64

	mu sync.Mutex
	// done marks the transaction finished (committed or aborted); late
	// operations observe it instead of mutating retired state.
	done bool
	// committing is set while a commit attempt is writing to storage. It
	// claims the transaction: a concurrent Put, Abort or duplicate Commit
	// waits for the outcome instead of racing the in-flight storage writes
	// — a §3.1 idempotent retry must observe the original attempt's
	// result, a Put the attempt does not write must not be acknowledged
	// into a transaction that then commits without it, and an abort racing
	// a commit must not delete spill data the commit record will
	// reference.
	committing bool
	// commitDone is what such a waiter blocks on: the first one creates
	// it, the attempt closes it when it resolves. The uncontended commit
	// never allocates it.
	commitDone chan struct{}
	// writes is the Atomic Write Buffer's slice for this transaction: the
	// latest buffered value of each key, sorted by key (writeOf). It
	// starts on writeBuf, sized for the paper's transaction of two Puts
	// (§6), so such a transaction allocates no buffer; a spill hands the
	// slice over and leaves writes nil, so a later Put starts a slice of
	// its own.
	writes   []kv
	writeBuf [2]kv
	// buffered tracks the byte volume in writes, for spill decisions.
	buffered int
	// reads is R in Algorithm 1, one entry per key read (readEntry). It
	// starts on readBuf.
	reads   []readEntry
	readBuf [4]readEntry
	// spilled holds keys whose payload was proactively written to the
	// spill area before commit (§3.3); nil until the first spill. A key
	// once spilled stays in the spill layout: if it is written again, the
	// commit puts its final value under its spill key.
	spilled map[string]bool
	// metaFetched records keys whose metadata this transaction already
	// recovered from storage (partial-metadata fallback), so repeated misses
	// of the same key — e.g. existence probes of a truly absent key —
	// cost one storage scan per transaction, not one per read.
	metaFetched map[string]bool

	// trace is the transaction's telemetry trace, nil when tracing is
	// off. Set once at StartTransaction and immutable after, so it is
	// read without t.mu.
	trace *telemetry.Trace

	// deadline is the transaction's abandonment lease as UnixNano (0 when
	// no op ever carried a deadline): the latest client op deadline seen,
	// extended by every operation that touches the transaction. It is
	// atomic so ReapExpired and refreshLease need no lock. A transaction
	// idle past its lease is presumed abandoned — its client gave up (the
	// deadline rode the wire) and will redo under a fresh ID — so the
	// reaper may abort it to reclaim its concurrency slot and buffered
	// writes. Transactions whose ops never carry deadlines (in-process
	// callers) keep a zero lease and are never reaped.
	deadline atomic.Int64
}

// readEntry is one key of the transaction's read set: the version read
// and its commit record. Read records are pinned, so they are immutable
// and cannot be swept: Algorithm 1's lower-bound pass walks them without
// touching any stripe lock. pinned marks the entry holding the
// transaction's reader pin on id (§5.1) — one entry per distinct version,
// however many of its keys were read.
type readEntry struct {
	key    string
	id     idgen.ID
	rec    *records.CommitRecord
	pinned bool
}

// readOf returns the index in t.reads of key's entry, or -1. Read sets are
// a handful of keys, and Algorithm 1's lower-bound pass already walks the
// whole set on every read, so the scan adds no asymptotic cost.
func (t *txnState) readOf(key string) int {
	for i := range t.reads {
		if t.reads[i].key == key {
			return i
		}
	}
	return -1
}

// writeOf returns the index in t.writes of key's entry and true, or the
// index its entry belongs at and false.
func (t *txnState) writeOf(key string) (int, bool) {
	return slices.BinarySearchFunc(t.writes, key, func(e kv, key string) int {
		return strings.Compare(e.key, key)
	})
}

// buffer sets key's buffered value to v. The caller holds t.mu.
func (t *txnState) buffer(key string, v []byte) {
	i, ok := t.writeOf(key)
	if ok {
		t.buffered += len(v) - len(t.writes[i].val)
		t.writes[i].val = v
		return
	}
	t.writes = slices.Insert(t.writes, i, kv{key, v})
	t.buffered += len(v)
}

// pinnedBy reports whether the transaction holds a reader pin on id.
func (t *txnState) pinnedBy(id idgen.ID) bool {
	for i := range t.reads {
		if t.reads[i].pinned && t.reads[i].id.Equal(id) {
			return true
		}
	}
	return false
}

// refreshLease extends the transaction's abandonment lease to the current
// operation's deadline: each op proves the client is still driving the
// transaction, so the lease tracks the LAST op's deadline, not the
// first's. Without the refresh, a multi-op transaction outliving its
// StartTransaction op deadline would be reaped mid-flight. Ops without a
// deadline leave the lease untouched.
func (t *txnState) refreshLease(ctx context.Context) {
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	nd := dl.UnixNano()
	for {
		cur := t.deadline.Load()
		if cur >= nd || t.deadline.CompareAndSwap(cur, nd) {
			return
		}
	}
}

func (t *txnState) spillDir() string {
	return idgen.ID{Timestamp: t.startTS, UUID: t.uuid}.String()
}

// awaitCommitAttempt blocks while a commit attempt holds the transaction.
// The caller holds t.mu, and holds it again on a nil return; on ctx expiry
// the error is returned with t.mu released.
func (t *txnState) awaitCommitAttempt(ctx context.Context) error {
	for t.committing {
		if t.commitDone == nil {
			t.commitDone = make(chan struct{})
		}
		ch := t.commitDone
		t.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
		t.mu.Lock()
	}
	return nil
}

// endCommitAttempt releases the attempt's claim and wakes its waiters. The
// caller holds t.mu.
func (t *txnState) endCommitAttempt() {
	t.committing = false
	if t.commitDone != nil {
		close(t.commitDone)
		t.commitDone = nil
	}
}

// StartTransaction begins a new transaction and returns its ID (the UUID
// by which every subsequent Get/Put/Commit/Abort is keyed, per Table 1).
// When the node is at its concurrency limit, the call blocks until a slot
// frees or ctx is done.
func (n *Node) StartTransaction(ctx context.Context) (string, error) {
	if err := n.acquire(ctx); err != nil {
		return "", err
	}
	if n.overBudgetHard() {
		// Past the metadata-budget hard ceiling (budget.go): shed with
		// the same retriable contract as admission control. The client's
		// backoff gives the maintenance-point EnforceBudget time to
		// release memory, after which retries admit normally.
		n.release()
		n.metrics.BudgetShed.Add(1)
		n.metrics.OverloadShed.Add(1)
		n.cfg.Events.Record(telemetry.EventTxnShed, n.cfg.NodeID, "",
			"reason", "metadata_budget")
		return "", ErrOverloaded
	}
	id := n.gen.NewID()
	t := &txnState{uuid: id.UUID, startTS: id.Timestamp,
		startSeq: n.installSeq.Load(), startedAt: time.Now().UnixNano()}
	t.writes, t.reads = t.writeBuf[:0], t.readBuf[:0]
	// The wire layer deposits an inbound client trace context in ctx; a
	// zero context self-samples per the tracer's policy.
	t.trace = n.tracer.Begin(id.UUID, telemetry.TraceContextFrom(ctx))
	t.refreshLease(ctx)
	n.tmu.Lock()
	n.txns[id.UUID] = t
	n.tmu.Unlock()
	n.metrics.Started.Add(1)
	return id.UUID, nil
}

// ResumeTransaction re-attaches to transaction txid after a function
// failure: a retried function "can use the same transaction ID to continue
// the transaction" (§3.3.1). If the transaction is still live on this node
// the call is a no-op; if it already committed, ErrTxnFinished is returned
// (the retry's work is already durable — exactly-once); if the node lost
// the transaction (e.g. it restarted), ErrTxnNotFound tells the client to
// redo the transaction from scratch.
func (n *Node) ResumeTransaction(ctx context.Context, txid string) error {
	n.tmu.RLock()
	defer n.tmu.RUnlock()
	if t, ok := n.txns[txid]; ok {
		t.refreshLease(ctx)
		return nil
	}
	if _, ok := n.committedByUUID[txid]; ok {
		return ErrTxnFinished
	}
	return ErrTxnNotFound
}

// lookup returns the live transaction state or an error classifying why it
// is absent.
func (n *Node) lookup(txid string) (*txnState, error) {
	n.tmu.RLock()
	defer n.tmu.RUnlock()
	if t, ok := n.txns[txid]; ok {
		return t, nil
	}
	if _, ok := n.committedByUUID[txid]; ok {
		return nil, ErrTxnFinished
	}
	return nil, ErrTxnNotFound
}

// finishedErr classifies a transaction that raced to completion between a
// successful lookup and the operation's t.mu acquisition.
func (n *Node) finishedErr(txid string) error {
	n.tmu.RLock()
	_, committed := n.committedByUUID[txid]
	n.tmu.RUnlock()
	if committed {
		return ErrTxnFinished
	}
	return ErrTxnNotFound
}

// Put buffers an update for transaction txid (Table 1). Data is not
// persisted or visible until CommitTransaction; a saturated buffer may
// spill intermediary data to storage, which stays invisible until the
// commit record is written (§3.3).
func (n *Node) Put(ctx context.Context, txid, key string, value []byte) error {
	t, err := n.lookup(txid)
	if err != nil {
		return err
	}
	t.refreshLease(ctx)
	v := make([]byte, len(value))
	copy(v, value)

	t.mu.Lock()
	// A commit attempt in flight has already fixed what it writes: wait
	// for its outcome. After a success the Put reports ErrTxnFinished
	// below; after a failure the transaction is live again and the Put
	// joins its buffer for the retry.
	if err := t.awaitCommitAttempt(ctx); err != nil {
		return err
	}
	if t.done {
		t.mu.Unlock()
		return n.finishedErr(txid)
	}
	t.buffer(key, v)
	needSpill := n.cfg.SpillThreshold > 0 && t.buffered > n.cfg.SpillThreshold
	var spillItems []kv
	var spillDir string
	if needSpill {
		// Move the entire buffer to the spill area; later writes to the
		// same keys re-enter the buffer and take precedence, and the
		// commit writes them over their spill objects. The spill owns the
		// slice from here on, writeBuf included.
		spillItems = t.writes
		spillDir = t.spillDir()
		t.writes = nil
		t.buffered = 0
		if t.spilled == nil {
			t.spilled = make(map[string]bool, len(spillItems))
		}
		for _, it := range spillItems {
			t.spilled[it.key] = true
		}
	}
	t.mu.Unlock()

	if needSpill {
		n.metrics.Spills.Add(1)
		for _, it := range spillItems {
			sk := records.SpillKey(spillDir, it.key)
			if err := n.store.Put(ctx, sk, it.val); err != nil {
				// Spill failure is not fatal: restore the data to the
				// buffer and carry on holding it in memory. The key stays
				// in spilled — a failed Put may still have landed, as may
				// an earlier spill of the key — so the commit writes its
				// final value over any spill object and the record names
				// it for the global GC.
				t.mu.Lock()
				if _, ok := t.writeOf(it.key); !ok {
					t.buffer(it.key, it.val)
				}
				t.mu.Unlock()
				continue
			}
			// Write through to the data cache: a key spilled twice in one
			// transaction overwrites its spill object, so the cached copy
			// must be refreshed for the read path to stay coherent.
			n.data.adopt(sk, it.val)
		}
	}
	return nil
}

// AbortTransaction discards transaction txid and all of its buffered
// updates (Table 1); nothing becomes visible. Aborting an unknown or
// finished transaction returns the corresponding error.
func (n *Node) AbortTransaction(ctx context.Context, txid string) error {
	t, err := n.lookup(txid)
	if err != nil {
		return err
	}
	t.mu.Lock()
	// If a commit attempt is in flight, wait for its outcome: if it
	// succeeds the abort reports ErrTxnFinished below; if it fails the
	// transaction is still live and the abort proceeds.
	if err := t.awaitCommitAttempt(ctx); err != nil {
		return err
	}
	if t.done {
		t.mu.Unlock()
		return n.finishedErr(txid)
	}
	t.done = true
	n.unpin(t)
	var spillDir string
	var spilled []string
	for k := range t.spilled {
		spilled = append(spilled, k)
	}
	if len(spilled) > 0 {
		spillDir = t.spillDir()
	}
	t.mu.Unlock()

	n.tmu.Lock()
	delete(n.txns, txid)
	n.tmu.Unlock()

	// Best-effort cleanup of spilled intermediary data; orphans left by a
	// crash here are reclaimed by the global GC's spill sweep (§5). Cached
	// spill payloads are evicted with their storage objects.
	if len(spilled) > 0 {
		spillKeys := make([]string, len(spilled))
		for i, k := range spilled {
			spillKeys[i] = records.SpillKey(spillDir, k)
			n.data.evict([]byte(spillKeys[i]))
		}
		_ = n.store.BatchDelete(ctx, spillKeys)
	}
	n.metrics.Aborted.Add(1)
	t.trace.Finish("aborted")
	n.release()
	return nil
}

// ReapExpired aborts live transactions whose abandonment lease (the
// latest client op deadline, see refreshLease) passed more than grace
// ago: dangling sessions a partitioned or timed-out client abandoned
// mid-transaction. Without the reaper those sessions hold MaxConcurrent
// slots and buffered writes until process exit (the client redoes under
// a fresh ID and never aborts the old one). Transactions whose ops never
// carried a deadline are never reaped. It returns how many transactions
// it aborted.
//
// Callers drive it from their maintenance pipeline (aft-server's loop,
// the chaos campaigns' explicit maintenance points) — an explicit pass
// rather than a background timer, so deterministic harnesses control
// exactly when reaping happens. The one built-in caller is admission
// (acquire's slow path), which reaps before parking or shedding so
// abandoned sessions cannot wedge the node.
func (n *Node) ReapExpired(ctx context.Context, grace time.Duration) int {
	now := time.Now().UnixNano()
	var expired []string
	n.tmu.RLock()
	for txid, t := range n.txns {
		if dl := t.deadline.Load(); dl != 0 && now > dl+int64(grace) {
			expired = append(expired, txid)
		}
	}
	n.tmu.RUnlock()
	reaped := 0
	for _, txid := range expired {
		// AbortTransaction re-checks liveness and waits out any in-flight
		// commit attempt, so racing a late client retry is safe: whichever
		// side finishes first settles the transaction, the other observes
		// ErrTxnFinished/ErrTxnNotFound.
		if err := n.AbortTransaction(ctx, txid); err == nil {
			reaped++
		}
	}
	if reaped > 0 {
		n.metrics.ReapedExpired.Add(int64(reaped))
	}
	return reaped
}

// unpin releases the transaction's reader pins. The caller holds t.mu.
func (n *Node) unpin(t *txnState) {
	n.pinMu.Lock()
	for i := range t.reads {
		e := &t.reads[i]
		if !e.pinned {
			continue
		}
		if n.readers[e.id]--; n.readers[e.id] <= 0 {
			delete(n.readers, e.id)
		}
		e.pinned = false
	}
	n.pinMu.Unlock()
}
