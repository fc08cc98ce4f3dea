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
		plan, err := n.planRead(t, key)
		t.mu.Unlock()
		if err != nil {
			return dst, err
		}
		if plan.buffered {
			return appendValue(dst, plan.value), nil
		}

		// Payload fetch, outside every lock: the reader pin taken during
		// selection keeps the version's metadata alive (§5.1). Its storage
		// keys were built once, with its record (records.CommitRecord.Seal),
		// so neither the probe nor the fetch builds one. Spilled
		// read-your-writes data is cached like any other payload (a spill
		// is invisible to other transactions until commit, but THIS
		// transaction re-reads it after every resumed function); Put
		// refreshes the entry when a key re-spills. An inline version's
		// value is cached under its own entry key.
		if out, ok := n.data.appendTo(plan.entry, dst); ok {
			n.metrics.CacheHits.Add(1)
			return out, nil
		}
		v, err := n.store.Get(ctx, plan.fetch)
		if err != nil {
			if !plan.spill && errors.Is(err, storage.ErrNotFound) {
				// GC race: the version was superseded and collected
				// after the selection's protection lapsed. The §5.2
				// unanimity vote can pass and then a replacement node's
				// bootstrap re-installs the already-confirmed record
				// before its data is deleted (a vote/delete TOCTOU the
				// chaos harness reproduces under kill + promotion). For
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
				return dst, fmt.Errorf("aft: fetching %s: %w", plan.fetch, ErrVersionVanished)
			}
			// A committed version's data is durable before, or inside,
			// its commit record (§3.3), so this indicates either storage
			// unavailability or a GC race on a deleted version; surface
			// it to the client for retry.
			return dst, fmt.Errorf("aft: fetching %s: %w", plan.fetch, err)
		}
		if plan.inline() {
			return n.keepInline(&plan, key, v, dst)
		}
		return n.keepFetched(plan.fetch, v, dst), nil
	}
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

// keepInline appends key's value, taken from rec — the stored form of the
// inline record the plan fetched, just read from storage — to dst, and
// hands it to the data cache under the plan's entry key. The value stays a
// sub-slice of rec: the cache adopts it, and with no cache and no buffer to
// fill the caller gets it with its capacity clipped, so extracting copies
// nothing.
func (n *Node) keepInline(p *readPlan, key string, rec, dst []byte) ([]byte, error) {
	v, err := records.InlineValue(rec, key)
	if err != nil {
		return dst, fmt.Errorf("aft: reading %s from %s: %w", key, p.fetch, err)
	}
	if n.data == nil && dst == nil {
		return v, nil
	}
	n.data.adopt(p.entry, v)
	return appendValue(dst, v), nil
}

// readPlan is the outcome of a read's metadata phase: where the payload
// lives and what was pinned, so the fetch can run outside t.mu and a
// vanished payload can be unwound.
type readPlan struct {
	buffered bool   // read-your-writes from the write buffer: value
	value    []byte // the buffered value; never written after Put
	spill    bool   // read-your-writes from the spill area
	// fetch is the storage key holding the value and entry the key the
	// data cache holds it under: both the spill key, or the selected
	// version's keys (records.CommitRecord.EntryKey), where an inline
	// version's fetch is its record's key.
	fetch, entry string
	target       idgen.ID
	rec          *records.CommitRecord
	pinnedNow    bool
	alreadyRead  bool
}

// inline reports whether the plan reads a value out of an inline commit
// record.
func (p *readPlan) inline() bool { return !p.spill && p.rec.Inline }

// planRead runs the metadata phase of one read attempt; the caller holds
// t.mu.
func (n *Node) planRead(t *txnState, key string) (readPlan, error) {
	// Read-your-writes: the write buffer takes precedence (§3.5).
	if i, ok := t.writeOf(key); ok {
		return readPlan{buffered: true, value: t.writes[i].val}, nil
	}
	if t.spilled[key] {
		// Spilled intermediary data is still this transaction's own
		// write; serve it for read-your-writes.
		sk := records.SpillKey(t.spillDir(), key)
		return readPlan{spill: true, fetch: sk, entry: sk}, nil
	}
	alreadyRead := t.readOf(key) >= 0

	// The node holds the whole uncollected Commit Set (§3.1), so a local
	// miss is the answer: ErrKeyNotFound, or §5.2.1's ErrNoValidVersion.
	target, rec, pinnedNow, err := n.selectAndPin(t, key)
	if err != nil {
		return readPlan{}, err
	}
	i, ok := rec.Find(key)
	if !ok {
		// The version index lists only keys of the record's write set.
		return readPlan{}, fmt.Errorf("aft: version %v of %q missing from its write set", target, key)
	}
	p := readPlan{
		fetch:       rec.EntryKey(i),
		entry:       rec.EntryKey(i),
		target:      target,
		rec:         rec,
		pinnedNow:   pinnedNow,
		alreadyRead: alreadyRead,
	}
	if rec.Inline {
		p.fetch = rec.Key()
	}
	return p, nil
}

// selectAndPin runs Algorithm 1 for key and, on success, records the read
// and pins the source transaction against local GC — all before the stripe
// lock is released, so the version's metadata cannot be deleted between
// selection and payload fetch (§5.1). The caller holds t.mu.
func (n *Node) selectAndPin(t *txnState, key string) (idgen.ID, *records.CommitRecord, bool, error) {
	lower, err := t.lowerBound(key)
	if err != nil {
		return idgen.Null, nil, false, err
	}
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

// lowerBound runs lines 3-5 of Algorithm 1: the lower bound is the
// largest transaction in R that cowrote key — we must not return anything
// older (case 1 of the inductive proof of Theorem 1). Each check is a
// binary search of a sorted write set. Read records are pinned, so this
// pass needs no locks; the caller holds t.mu.
func (t *txnState) lowerBound(key string) (idgen.ID, error) {
	lower := idgen.Null
	for i := range t.reads {
		e := &t.reads[i]
		if e.rec == nil {
			// The record is pinned while in R, so this cannot happen
			// unless bookkeeping broke; fail the read defensively.
			return idgen.Null, fmt.Errorf("aft: read-set transaction %v missing from commit cache", e.id)
		}
		if lower.Less(e.id) && e.rec.Cowritten(key) {
			lower = e.id
		}
	}
	return lower, nil
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
		// GC collected under a bootstrap re-install.
		return idgen.Null, nil, ErrNoValidVersion
	}

	// Lines 13-21: walk candidates newest-first; a candidate kt is valid
	// unless some key l cowritten with kt was already read at a version
	// older than t (case 2 of the proof). The walk goes over the read set,
	// each entry older than kt a binary search of kt's sorted write set:
	// |R|·log|W| compares a candidate, not |W|·|R|.
	for i := len(candidates) - 1; i >= 0; i-- {
		tid := candidates[i]
		rec := s.commits[tid]
		if rec == nil {
			continue // concurrently GC'd; skip
		}
		if !t.fractures(tid, rec) {
			return tid, rec, nil
		}
	}
	// Lines 22-23: no valid version.
	return idgen.Null, nil, ErrNoValidVersion
}

// fractures reports whether reading rec's version of a key would fracture
// the transaction's reads: some key rec wrote was read at a version older
// than tid, rec's transaction. The caller holds t.mu.
func (t *txnState) fractures(tid idgen.ID, rec *records.CommitRecord) bool {
	for j := range t.reads {
		if e := &t.reads[j]; e.id.Less(tid) && rec.Cowritten(e.key) {
			return true
		}
	}
	return false
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
