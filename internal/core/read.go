package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/telemetry"
)

// Get retrieves key in the context of transaction txid (Table 1), enforcing
// read atomic isolation. It returns a copy the caller owns: AppendGet with
// a nil buffer.
func (n *Node) Get(ctx context.Context, txid, key string) ([]byte, error) {
	return n.AppendGet(ctx, txid, key, nil)
}

// AppendGet is the node's one read routine: Get, appending the value to dst
// and returning the extended slice (dst unchanged on error). A caller that
// owns a buffer — the wire server's pooled response — reads into it
// instead of receiving a private copy to encode and drop.
//
// The read path is, in order:
//  1. read-your-writes (§3.5): a version buffered by this transaction is
//     returned immediately, outside the scope of Algorithm 1;
//  2. Algorithm 1 selects the newest committed version compatible with the
//     transaction's read set (no dirty reads, no fractured reads, and —
//     by Corollary 1.1 — repeatable reads);
//  3. the payload is served from the data cache when enabled, else fetched
//     from storage.
//
// Locking: the metadata phase holds only the transaction's own mutex plus
// a read lock on the single stripe owning key during version selection —
// reads of different keys (and commits, merges, sweeps on other stripes)
// proceed fully in parallel, and t.mu is released before any payload
// fetch so concurrent reads within ONE transaction overlap their storage
// round trips. The lower-bound pass of Algorithm 1 walks the
// transaction's pinned read records without touching any stripe.
//
// It returns ErrKeyNotFound when no committed version of key exists
// (the NULL version, §3.2) and ErrNoValidVersion when versions exist but
// none is compatible with the read set (§3.6) — clients should abort and
// retry in that case.
func (n *Node) AppendGet(ctx context.Context, txid, key string, dst []byte) ([]byte, error) {
	if err := n.checkCtx(ctx); err != nil {
		return dst, err
	}
	t, err := n.lookup(txid)
	if err != nil {
		return dst, err
	}
	t.refreshLease(ctx)
	n.metrics.Reads.Add(1)
	ctx = telemetry.WithTrace(ctx, t.trace)
	sp := t.trace.StartSpan("node.read")
	start := time.Now()
	out, err := n.doGet(ctx, t, txid, key, dst)
	sp.End()
	if err == nil {
		n.latRead.Observe(time.Since(start))
	}
	return out, err
}

func (n *Node) doGet(ctx context.Context, t *txnState, txid, key string, dst []byte) ([]byte, error) {
	// Up to two attempts: a version selected from local metadata can have
	// had its payload deleted by the global GC (see the NotFound branch
	// below); the retry forgets the vanished version and re-selects.
	for attempt := 0; ; attempt++ {
		t.mu.Lock()
		if t.done {
			t.mu.Unlock()
			return dst, n.finishedErr(txid)
		}
		plan, err := n.planRead(ctx, t, key)
		t.mu.Unlock()
		if err != nil {
			return dst, err
		}
		if plan.buffered {
			return appendValue(dst, plan.value), nil
		}

		// Payload fetch, outside every lock: the reader pin taken during
		// selection keeps the version's metadata alive (§5.1). The storage
		// key is assembled in kb; only a cache miss makes it a string.
		// Spilled read-your-writes data is cached like any other payload
		// (a spill is invisible to other transactions until commit, but
		// THIS transaction re-reads it after every resumed function); Put
		// refreshes the entry when a key re-spills. An inline version's
		// value is cached under its own entry, named after the record key.
		var kb [keyBufLen]byte
		sk := plan.appendStorageKey(kb[:0], key)
		inline := !plan.spill && plan.rec.Inline
		probe := sk
		if inline {
			probe = appendPackEntryKey(sk, key)
		}
		if out, ok := n.data.appendTo(probe, dst); ok {
			n.metrics.CacheHits.Add(1)
			return out, nil
		}
		storageKey := string(sk)
		v, err := n.store.Get(ctx, storageKey)
		if err != nil {
			if !plan.spill && errors.Is(err, storage.ErrNotFound) {
				// GC race: the version was superseded and collected
				// after the selection's protection lapsed. The §5.2
				// unanimity vote can pass and then a replacement node's
				// bootstrap, or a partial-metadata fallback, re-installs
				// the already-confirmed record before its data is deleted
				// (a vote/delete TOCTOU the chaos harness reproduces
				// under kill + promotion). For
				// a first read of the key, unwind the selection, forget
				// the vanished version, and retry — a newer version
				// exists in storage. A re-read of an already-read key
				// cannot re-select (repeatable read requires that exact
				// version): the transaction must be redone, signalled by
				// ErrVersionVanished.
				if !plan.alreadyRead {
					t.mu.Lock()
					n.forgetVanished(t, key, plan.target, plan.rec, plan.pinnedNow)
					t.mu.Unlock()
					if attempt == 0 {
						continue
					}
				}
				return dst, fmt.Errorf("aft: fetching %s: %w", storageKey, ErrVersionVanished)
			}
			// A committed version's data is durable before, or inside,
			// its commit record (§3.3), so this indicates either storage
			// unavailability or a GC race on a deleted version; surface
			// it to the client for retry.
			return dst, fmt.Errorf("aft: fetching %s: %w", storageKey, err)
		}
		if inline {
			return n.keepInline(storageKey, key, v, dst)
		}
		return n.keepFetched(storageKey, v, dst), nil
	}
}

// keyBufLen sizes the stack buffers storage keys are assembled in for
// data-cache probes; a longer key spills the buffer to the heap.
const keyBufLen = 128

// appendStorageKey appends the storage key of the planned read of key to
// dst: the spill key of this transaction's own spilled write, or the
// selected version's key.
func (p *readPlan) appendStorageKey(dst []byte, key string) []byte {
	if p.spill {
		return records.AppendSpillKey(dst, p.spillDir, key)
	}
	return p.rec.AppendStorageKeyFor(dst, key)
}

// keepFetched hands a payload just read from storage to the data cache and
// to the caller. The cache adopts v, so the caller gets a copy appended to
// dst — or v itself when no cache shares it and there is no buffer to fill.
func (n *Node) keepFetched(storageKey string, v, dst []byte) []byte {
	if n.data == nil && dst == nil {
		return v
	}
	n.data.adopt(storageKey, v)
	return appendValue(dst, v)
}

// packEntryKey is the data-cache key of one user key's value inside an
// inline commit record. Record keys contain no NUL byte, so splitting at
// the first NUL is unambiguous and distinct (recordKey, key) pairs can
// never collide.
func packEntryKey(recordKey, key string) string {
	return recordKey + "\x00" + key
}

// appendPackEntryKey is packEntryKey for a probe: it appends the entry
// suffix to the record key's bytes, in the spare capacity of the caller's
// buffer, leaving recordKey itself intact.
func appendPackEntryKey(recordKey []byte, key string) []byte {
	return append(append(recordKey, 0), key...)
}

// keepInline appends key's value, taken from rec — the stored form of the
// inline record at recordKey, just read from storage — to dst, and hands
// it to the data cache under its entry key. The value stays a sub-slice of
// rec: the cache adopts it, and with no cache and no buffer to fill the
// caller gets it with its capacity clipped, so extracting copies nothing.
func (n *Node) keepInline(recordKey, key string, rec, dst []byte) ([]byte, error) {
	v, err := records.InlineValue(rec, key)
	if err != nil {
		return dst, fmt.Errorf("aft: reading %s from %s: %w", key, recordKey, err)
	}
	if n.data == nil && dst == nil {
		return v, nil
	}
	n.data.adopt(packEntryKey(recordKey, key), v)
	return appendValue(dst, v), nil
}

// readPlan is the outcome of a read's metadata phase: where the payload
// lives and what was pinned, so the fetch can run outside t.mu and a
// vanished payload can be unwound.
type readPlan struct {
	buffered    bool   // read-your-writes from the write buffer: value
	value       []byte // the buffered value; never written after Put
	spill       bool   // read-your-writes from the spill area
	spillDir    string //
	target      idgen.ID
	rec         *records.CommitRecord
	pinnedNow   bool
	alreadyRead bool
}

// planRead runs the metadata phase of one read attempt; the caller holds
// t.mu.
func (n *Node) planRead(ctx context.Context, t *txnState, key string) (readPlan, error) {
	// Read-your-writes: the write buffer takes precedence (§3.5).
	if i, ok := t.writeOf(key); ok {
		return readPlan{buffered: true, value: t.writes[i].val}, nil
	}
	if t.spilled[key] {
		// Spilled intermediary data is still this transaction's own
		// write; serve it for read-your-writes.
		return readPlan{spill: true, spillDir: t.spillDir()}, nil
	}
	alreadyRead := t.readOf(key) >= 0

	var target idgen.ID
	var rec *records.CommitRecord
	var pinnedNow bool
	var err error
	if !alreadyRead && !t.metaFetched[key] && n.floorSet(key) {
		// A budget spill evicted this key's newest resident version
		// (stripe.go spillFloor): resident candidates may all be stale, so
		// the index must not be trusted until storage is consulted. Skip
		// the optimistic selection and take the recovery path directly —
		// a floor implies partial-metadata mode, so the condition below
		// passes. Verification re-installs a version >= the floor, which
		// lifts it; until then the cost is one List per key per
		// transaction, only for spilled keys. A re-read needs no floor
		// check: repeatable reads pin the exact prior version, which is
		// resident by §5.1.
		err = ErrKeyNotFound
	} else {
		target, rec, pinnedNow, err = n.selectAndPin(t, key, nil)
	}
	if (errors.Is(err, ErrKeyNotFound) || errors.Is(err, ErrNoValidVersion)) &&
		n.partialMeta.Load() && !t.metaFetched[key] {
		// Partial-metadata mode: a local miss is inconclusive. A
		// truncated bootstrap skipped history, or the memory budget
		// spilled cold records, so the Transaction Commit
		// Set in storage may know versions this node does not. Recover
		// the key's commit metadata from storage and retry Algorithm 1
		// once. metaFetched bounds the cost to one storage scan per key
		// per transaction (the scan runs under t.mu; only this
		// transaction's own operations wait on it).
		if t.metaFetched == nil {
			t.metaFetched = make(map[string]bool)
		}
		t.metaFetched[key] = true
		fetched, finish, retryOnMiss, ferr := n.coalesceFetch(ctx, key)
		if ferr != nil {
			return readPlan{}, fmt.Errorf("aft: recovering metadata for %q: %w", key, ferr)
		}
		// Install and re-select inside ONE multi-stripe critical section
		// (selectAndPin write-locks the union): a concurrent sweep or
		// spill must not evict the fetched records between installation
		// and version selection. A coalesced waiter gets nil records —
		// the flight's leader already installed them — and re-selects
		// through the stripe index.
		target, rec, pinnedNow, err = n.selectAndPin(t, key, fetched)
		if finish != nil {
			finish()
		}
		if retryOnMiss && (errors.Is(err, ErrKeyNotFound) || errors.Is(err, ErrNoValidVersion)) {
			// The waiter's re-selection is NOT covered by the leader's
			// install critical section: a sweep can evict the installed
			// records in the window between the leader's finish and this
			// selection. Rare, and recoverable — fetch for ourselves, with
			// the atomic install+select the solo path gets.
			fetched, ferr = n.fetchKeyRecords(ctx, key)
			if ferr != nil {
				return readPlan{}, fmt.Errorf("aft: recovering metadata for %q: %w", key, ferr)
			}
			target, rec, pinnedNow, err = n.selectAndPin(t, key, fetched)
		}
	}
	if err != nil {
		return readPlan{}, err
	}
	return readPlan{
		target:      target,
		rec:         rec,
		pinnedNow:   pinnedNow,
		alreadyRead: alreadyRead,
	}, nil
}

// selectAndPin runs Algorithm 1 for key and, on success, records the read
// and pins the source transaction against local GC — all before the stripe
// lock is released, so the version's metadata cannot be deleted between
// selection and payload fetch (§5.1). The caller holds t.mu.
//
// With install records supplied (the partial-metadata recovery path), the
// union of their stripes plus key's stripe is write-locked and the records
// are installed in the same critical section as the selection.
func (n *Node) selectAndPin(t *txnState, key string, install []*records.CommitRecord) (idgen.ID, *records.CommitRecord, bool, error) {
	// Lines 3-5 of Algorithm 1: the lower bound is the largest
	// transaction in R that cowrote key — we must not return anything
	// older (case 1 of the inductive proof of Theorem 1). Read records
	// are pinned, so this pass needs no locks.
	lower := idgen.Null
	for i := range t.reads {
		e := &t.reads[i]
		if e.rec == nil {
			// The record is pinned while in R, so this cannot happen
			// unless bookkeeping broke; fail the read defensively.
			return idgen.Null, nil, false, fmt.Errorf("aft: read-set transaction %v missing from commit cache", e.id)
		}
		if e.rec.Cowritten(key) && lower.Less(e.id) {
			lower = e.id
		}
	}

	if len(install) == 0 {
		s := n.stripeFor(key)
		s.mu.RLock()
		target, rec, err := n.selectVersionLocked(t, key, lower)
		pinnedNow := false
		if err == nil {
			pinnedNow = n.pinRead(t, key, target, rec)
		}
		s.mu.RUnlock()
		return target, rec, pinnedNow, err
	}

	union := make([]string, 0, 1+len(install))
	union = append(union, key)
	for _, fr := range install {
		union = append(union, fr.WriteSet...)
	}
	ss := n.appendStripes(nil, union)
	lockStripes(ss)
	for _, fr := range install {
		n.installRecoveredLocked(fr, key)
	}
	target, rec, err := n.selectVersionLocked(t, key, lower)
	pinnedNow := false
	if err == nil {
		pinnedNow = n.pinRead(t, key, target, rec)
	}
	unlockStripes(ss)
	return target, rec, pinnedNow, err
}

// pinRead records a successful version selection in the transaction's read
// set and takes a reader pin. The caller holds t.mu and (at least a read
// lock on) key's stripe. It reports whether a new pin was taken.
func (n *Node) pinRead(t *txnState, key string, target idgen.ID, rec *records.CommitRecord) bool {
	if t.readOf(key) >= 0 {
		// A re-read: Algorithm 1 selected the version already read
		// (repeatable read, Corollary 1.1), which the transaction pins.
		return false
	}
	pin := !t.pinnedBy(target)
	t.reads = append(t.reads, readEntry{key: key, id: target, rec: rec, pinned: pin})
	if pin {
		n.pinMu.Lock()
		n.readers[target]++
		n.pinMu.Unlock()
	}
	return pin
}

// forgetVanished unwinds a version selection whose payload the global GC
// deleted mid-read (see doGet): the read-set entry and pin taken this
// attempt are released, and the version is removed from the local
// metadata cache so re-selection cannot pick it again. The caller holds
// t.mu.
func (n *Node) forgetVanished(t *txnState, key string, target idgen.ID, rec *records.CommitRecord, pinnedNow bool) {
	if i := t.readOf(key); i >= 0 && t.reads[i].id.Equal(target) {
		if pinnedNow && t.reads[i].pinned {
			n.pinMu.Lock()
			if n.readers[target]--; n.readers[target] <= 0 {
				delete(n.readers, target)
			}
			n.pinMu.Unlock()
		}
		t.reads = slices.Delete(t.reads, i, i+1)
	}
	// Let the retry recover fresh metadata even if this transaction
	// already fetched for this key.
	delete(t.metaFetched, key)
	var buf [16]*stripe
	ss := n.appendStripes(buf[:0], rec.WriteSet)
	lockStripes(ss)
	dropMarker := false
	if cached, ok := ss[0].commits[target]; ok && cached == rec {
		// Drop the index entries so re-selection skips the vanished
		// version (installLocked will not re-index it while the commit
		// entry survives).
		n.evictPayloads(rec)
		for _, k := range rec.WriteSet {
			n.stripeFor(k).index.remove(k, target)
		}
		// The record itself must outlive any other transaction still
		// pinning it: their read sets resolve through readRecs and the
		// stripes' commit caches. Once unpinned, the local sweep retires
		// it. New pins cannot arrive while we hold the write locks (the
		// index entries are gone), so the reader count is stable here.
		n.pinMu.Lock()
		still := n.readers[target]
		n.pinMu.Unlock()
		if still == 0 {
			for _, s := range ss {
				delete(s.commits, target)
				delete(s.installed, target)
			}
			n.metaCount.Add(-1)
			n.metaBytes.Add(-int64(rec.ApproxBytes()))
			dropMarker = true
		}
	}
	unlockStripes(ss)
	if dropMarker {
		n.tmu.Lock()
		delete(n.committedByUUID, rec.UUID)
		n.tmu.Unlock()
	}
}

// selectVersionLocked implements the candidate walk of Algorithm 1: given
// the transaction's read set R (t.reads), key k, and the precomputed
// lower bound, it selects a version kj such that R ∪ {kj} is still an
// Atomic Readset (Definition 1). The caller holds t.mu and key's stripe
// lock, and the walk reads the stripe's version list in place under it:
// what a read costs does not grow with the key's history.
func (n *Node) selectVersionLocked(t *txnState, key string, lower idgen.ID) (idgen.ID, *records.CommitRecord, error) {
	s := n.stripeFor(key)

	// Lines 7-9: no known version and no constraint means the NULL
	// version — the key simply does not exist yet.
	candidates := s.index.atLeast(key, lower)
	if len(candidates) == 0 {
		if lower.IsNull() {
			return idgen.Null, nil, ErrKeyNotFound
		}
		// A constrained read with no candidate at all: the versions
		// this read set requires are gone. The local sweep keeps every
		// version a live transaction may need (retirableLocked), so this
		// is §5.2.1's missing-versions limitation only for a transaction
		// the sweep presumed abandoned, or one whose versions the global
		// GC collected under a bootstrap or fallback re-install.
		return idgen.Null, nil, ErrNoValidVersion
	}

	// Lines 13-21: walk candidates newest-first; a candidate kt is valid
	// unless some key l cowritten with kt was already read at a version
	// older than t (case 2 of the proof).
	for i := len(candidates) - 1; i >= 0; i-- {
		tid := candidates[i]
		rec := s.commits[tid]
		if rec == nil {
			continue // concurrently GC'd; skip
		}
		valid := true
		for _, l := range rec.WriteSet {
			if j := t.readOf(l); j >= 0 && t.reads[j].id.Less(tid) {
				valid = false
				break
			}
		}
		if valid {
			return tid, rec, nil
		}
	}
	// Lines 22-23: no valid version.
	return idgen.Null, nil, ErrNoValidVersion
}

// fetchCall is one in-flight cold-key metadata recovery; waiters block on
// done and, once the leader has installed the fetched records, re-select
// through the stripe index.
type fetchCall struct {
	done  chan struct{}
	err   error // set before done closes; read only after
	found int   // records the leader fetched; set before done closes
}

// coalesceFetch is the node-level singleflight in front of fetchKeyRecords:
// N concurrent cold reads of the same key share ONE List + BatchGet round
// trip instead of issuing N storms. The leader (first caller) fetches and
// returns the records together with a finish func the caller MUST invoke
// after installing them (planRead does so inside selectAndPin's critical
// section); waiters block until then and return nil records — the records
// are already in the stripe index. retryOnMiss is set only for a waiter
// whose leader DID find records: its re-selection is outside the leader's
// install critical section, so a sweep can empty the index again and the
// caller should fetch solo. When the leader found nothing, a waiter's miss
// is the true outcome and re-fetching would just repeat the empty List. A
// waiter whose leader failed falls back to its own fetch so one canceled
// context or transient storage error cannot poison every coalesced read.
func (n *Node) coalesceFetch(ctx context.Context, key string) (recs []*records.CommitRecord, finish func(), retryOnMiss bool, err error) {
	n.fetchMu.Lock()
	if call, ok := n.fetching[key]; ok {
		n.fetchMu.Unlock()
		n.metrics.CoalescedFetches.Add(1)
		sp := telemetry.StartSpan(ctx, "read.coalesce_wait")
		sp.Annotate("role", "waiter")
		select {
		case <-call.done:
		case <-ctx.Done():
			sp.End()
			return nil, nil, false, ctx.Err()
		}
		sp.End()
		if call.err != nil {
			recs, err = n.fetchKeyRecords(ctx, key)
			return recs, nil, false, err
		}
		return nil, nil, call.found > 0, nil
	}
	call := &fetchCall{done: make(chan struct{})}
	n.fetching[key] = call
	n.fetchMu.Unlock()
	finish = func() {
		n.fetchMu.Lock()
		delete(n.fetching, key)
		n.fetchMu.Unlock()
		close(call.done)
	}
	sp := telemetry.StartSpan(ctx, "read.coldfetch")
	sp.Annotate("role", "leader")
	recs, err = n.fetchKeyRecords(ctx, key)
	sp.End()
	if err != nil {
		call.err = err
		finish()
		return nil, nil, false, err
	}
	call.found = len(recs)
	return recs, finish, false, nil
}

// fetchKeyRecords recovers commit metadata for a key from storage (the
// partial-metadata fallback): it scans the Transaction Commit Set, fetches
// every record the node does not already know in ONE BatchGet (the engine
// chunks by its read-batch limit), and keeps those that cowrote key. Every
// record carries its write set, so the scan finds inline, two-phase and
// spilled versions alike. The caller installs the records in the same
// critical section as the retried version selection (selectAndPin), so a
// concurrent sweep cannot evict them in between. Only committed versions
// have a record — the write-ordering protocol (§3.3) makes the commit
// record the visibility point — so this fallback can never surface a dirty
// read.
func (n *Node) fetchKeyRecords(ctx context.Context, key string) ([]*records.CommitRecord, error) {
	n.metrics.RemoteFetches.Add(1)
	storageKeys, err := n.store.List(ctx, records.CommitPrefix)
	if err != nil {
		return nil, err
	}
	want := make([]string, 0, len(storageKeys))
	var out []*records.CommitRecord
	for _, sk := range storageKeys {
		id, err := records.ParseCommitKey(sk)
		if err != nil {
			continue
		}
		if rec, known := n.findRecord(id); known {
			if rec.Cowritten(key) {
				// Cached already — perhaps selectable only for sibling
				// keys (recovered installs index only the verified key).
				// Re-install it without a round trip:
				// installRecoveredLocked is idempotent, makes it a
				// candidate for THIS key, and lifts the key's refetch
				// floor once the newest version goes through.
				out = append(out, rec)
			}
			continue
		}
		want = append(want, sk)
	}
	payloads, err := n.fetchRecordPayloads(ctx, want)
	if err != nil {
		return nil, err
	}
	for _, sk := range want {
		payload, ok := payloads[sk]
		if !ok {
			continue // GC'd concurrently
		}
		rec, err := records.UnmarshalCommitRecord(payload)
		if err != nil || !rec.Cowritten(key) {
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

// fetchRecordPayloads reads commit-record storage keys through
// batchFetchPayloads, counting them.
func (n *Node) fetchRecordPayloads(ctx context.Context, keys []string) (map[string][]byte, error) {
	n.metrics.BatchedRecordGets.Add(int64(len(keys)))
	return n.batchFetchPayloads(ctx, keys)
}

// ReadSet returns a copy of the transaction's current read set. Only tests
// call it: this package's and cluster's TestFlushMulticastIsVisibilityBarrier.
func (n *Node) ReadSet(txid string) (map[string]idgen.ID, error) {
	t, err := n.lookup(txid)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]idgen.ID, len(t.reads))
	for _, e := range t.reads {
		out[e.key] = e.id
	}
	return out, nil
}
