package core

import (
	"context"
	"slices"
	"sort"
	"strings"
	"time"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/telemetry"
)

// CommitTransaction persists transaction txid's updates and makes them
// atomically visible (Table 1). The write-ordering protocol of §3.3 runs in
// three strictly ordered steps:
//
//  1. every buffered key version is written to its unique storage key
//     (batched when the engine supports it, §6.1.1);
//  2. the commit record — ID plus write set — is written to the
//     Transaction Commit Set;
//  3. only then is the commit acknowledged and the transaction's data made
//     visible to other requests, by installing the record into the local
//     metadata cache.
//
// §3.3 orders step 1 before step 2 only so that a durable record implies
// durable data. A small unspilled write set — one whose record with every
// value in it encodes to at most maxInlineRecord bytes — skips step 1: its
// record carries the values (an inline record, records.AppendInline), and
// a single-key Put is atomic on every engine, so the commit is ONE storage
// write. This is §8's "one object per transaction", with the object being
// the record itself.
//
// All three steps are one routine, flush (flush.go), which every commit
// runs over its own writes on its own goroutine, on every engine.
// An engine whose batches are all-or-nothing across a crash (the WAL)
// takes steps 1 and 2 in ONE call: what §3.3's ordering protects — no
// durable record without its data — then holds by the engine's atomicity
// instead.
//
// A failure before step 2 completes leaves no visible effects: the data
// keys are unreferenced and the transaction will be retried. Commit is
// idempotent per transaction ID: retrying a commit that already succeeded
// returns the original commit ID (§3.1 exactly-once semantics).
func (n *Node) CommitTransaction(ctx context.Context, txid string) (idgen.ID, error) {
	tr := n.traceOf(txid)
	ctx = telemetry.WithTrace(ctx, tr)
	sp := tr.StartSpan("node.commit")
	start := time.Now()
	id, err := n.commitTransaction(ctx, txid)
	sp.End()
	if err == nil {
		n.latCommit.Observe(time.Since(start))
		// A failed attempt leaves the transaction live for a retry, so
		// the trace stays open; success — including the idempotent-retry
		// fast path, where tr is nil — completes it.
		tr.Finish("committed")
	}
	return id, err
}

func (n *Node) commitTransaction(ctx context.Context, txid string) (idgen.ID, error) {
	// An op whose deadline already passed is abandoned before any storage
	// write: the client has given up and will settle the outcome through
	// the §3.3.1 abort-or-redo path.
	if err := n.checkCtx(ctx); err != nil {
		return idgen.Null, err
	}
	n.tmu.RLock()
	t, live := n.txns[txid]
	prevID, finished := n.committedByUUID[txid]
	n.tmu.RUnlock()
	if !live {
		if finished {
			return prevID, nil // idempotent retry
		}
		return idgen.Null, ErrTxnNotFound
	}
	t.refreshLease(ctx)

	t.mu.Lock()
	// If another commit attempt for this transaction is mid-flight (a
	// retried client racing its original, §3.3.1), wait for its outcome
	// rather than double-committing under a second ID. On success t.done
	// is set and the idempotent return below applies; on failure this
	// attempt claims the transaction itself.
	if err := t.awaitCommitAttempt(ctx); err != nil {
		return idgen.Null, err
	}
	if t.done {
		t.mu.Unlock()
		// Raced with a concurrent finish: classify against the
		// idempotency table.
		n.tmu.RLock()
		id, committed := n.committedByUUID[txid]
		n.tmu.RUnlock()
		if committed {
			return id, nil
		}
		return idgen.Null, ErrTxnNotFound
	}
	// Claim the transaction for this attempt, then snapshot the write
	// buffer; the transaction stays live (and its pins held) until the
	// commit is durable.
	t.committing = true
	readOnly := len(t.writes) == 0 && len(t.spilled) == 0
	var sc *flushScratch
	var spilled []string
	var spillDir string
	if !readOnly {
		// A copy, already sorted by key, into the flush's pooled scratch:
		// what this attempt writes is fixed here. The commit record joins
		// the same slice below.
		sc = flushScratchPool.Get().(*flushScratch)
		defer sc.release()
		sc.writes = append(sc.writes[:0], t.writes...)
		// Every key ever spilled, rewritten since or not: its version
		// lives under its spill key either way (step 1 below).
		for k := range t.spilled {
			spilled = append(spilled, k)
		}
		if len(spilled) > 0 {
			sort.Strings(spilled)
			spillDir = t.spillDir()
		}
	}
	t.mu.Unlock()

	// The commit timestamp is assigned now (§3.1: "at commit time").
	id := idgen.ID{Timestamp: n.gen.NewTimestamp(), UUID: txid}

	// Read-only transactions have nothing to persist: assign an ID and
	// finish. No commit record is needed because no data must be made
	// visible.
	if readOnly {
		n.finishCommit(t, txid, id)
		return id, nil
	}

	// Step 2: the commit record. data still holds user keys here, sorted,
	// so the write set is sorted and the storage write order a function of
	// the transaction alone. The write set lives inside the record's own
	// allocation when it fits.
	data := sc.writes
	rec, writeSet := records.AllocRecord(len(data) + len(spilled))
	for i := range data {
		writeSet = append(writeSet, data[i].key)
	}
	if len(spilled) > 0 {
		for _, k := range spilled {
			if _, rewritten := slices.BinarySearchFunc(data, k, func(it kv, k string) int {
				return strings.Compare(it.key, k)
			}); !rewritten {
				writeSet = append(writeSet, k)
			}
		}
		sort.Strings(writeSet)
	}
	*rec = records.CommitRecord{
		Timestamp: id.Timestamp,
		UUID:      id.UUID,
		WriteSet:  writeSet,
		Node:      n.cfg.NodeID,
		// A client-sampled trace rides inside the record so peers
		// receiving the multicast delivery — and the fault manager
		// recovering the record after a crash — can attribute their work
		// to the same trace.
		TraceID: t.trace.SampledID(),
	}
	if len(spilled) > 0 {
		rec.SpillDir = spillDir
		rec.Spilled = spilled
	} else {
		// The write set is data's keys, in order: the record carries
		// their values when it fits the cap.
		sc.values = sc.values[:0]
		for _, it := range data {
			sc.values = append(sc.values, it.val)
		}
		rec.Inline = rec.InlineSize(sc.values) <= maxInlineRecord
	}

	// Every storage key of the commit is built in kb and becomes one
	// string, which the keys are sliced from. An inline commit writes only
	// its record, and its data entries name the values' data-cache entries
	// (packEntryKey); otherwise each version has a storage key of its own,
	// its data key or its spill key. From here on data holds those keys.
	var kb [commitKeyBufLen]byte
	var eb [commitKeysInline]int
	keys, ends := kb[:0], eb[:0]
	for _, it := range data {
		if rec.Inline {
			keys = appendPackEntryKey(records.AppendCommitKey(keys, id), it.key)
		} else if _, ok := slices.BinarySearch(spilled, it.key); ok {
			// A spilled key keeps the spill layout: its final value
			// overwrites its spill object, which the record names
			// (Spilled), so the global GC deletes the object with the
			// version instead of leaving it for the orphan sweep.
			keys = records.AppendSpillKey(keys, spillDir, it.key)
		} else {
			keys = records.AppendDataKey(keys, it.key, id)
		}
		ends = append(ends, len(keys))
	}
	keys = records.AppendCommitKey(keys, id)
	all, start := string(keys), 0
	for i, end := range ends {
		data[i].key = all[start:end]
		start = end
	}

	// The record's value is left to flush, which encodes rec into the
	// scratch.
	sc.writes = append(data, kv{key: all[start:]})
	if err := n.flush(ctx, sc, rec); err != nil {
		n.abandonCommit(t)
		return idgen.Null, err
	}
	// The routine already installed the record and queued the multicast
	// announcement (step 3 visibility); acknowledge.
	n.finishCommit(t, txid, id)

	// Warm the data cache with the values just written — they are the
	// newest versions and likely to be read soon — under the keys the
	// commit built, which a read of each version probes. The cache adopts
	// the values: Put copied each one into the write buffer, nothing writes
	// to them once the transaction is finished, and storage engines only
	// read what they are handed.
	for _, it := range data {
		n.data.adopt(it.key, it.val)
	}
	n.metrics.Committed.Add(1)
	return id, nil
}

// commitKeyBufLen sizes the stack buffer a commit builds its storage keys
// in, and commitKeysInline the count of keys whose ends it tracks without
// allocating; a larger commit spills either to the heap. maxInlineRecord
// caps the encoded size of an inline record: a write set whose record
// would be larger is written two-phase. The paper's transaction fits with
// room to spare (two 4 KB values: ~8.3 KB), a 50-key bulk load does not,
// and it stays far below DynamoDB's 400 KB item limit.
const (
	commitKeyBufLen  = 512
	commitKeysInline = 16
	maxInlineRecord  = 16 << 10
)

// finishCommit acknowledges a commit whose record (if it wrote anything)
// is durable and installed: it retires the transaction state and records
// the ID for idempotent retries.
func (n *Node) finishCommit(t *txnState, txid string, id idgen.ID) {
	n.tmu.Lock()
	n.committedByUUID[txid] = id
	delete(n.txns, txid)
	n.tmu.Unlock()
	t.mu.Lock()
	t.done = true
	t.endCommitAttempt()
	n.unpin(t)
	t.mu.Unlock()
	n.release()
}

// abandonCommit releases a failed attempt's claim on the transaction; it
// stays live (pins held, state intact) for a retry.
func (n *Node) abandonCommit(t *txnState) {
	t.mu.Lock()
	t.endCommitAttempt()
	t.mu.Unlock()
}
