package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"aft/internal/storage"
	"aft/internal/telemetry"
)

// MultiGet reads every key in the context of transaction txid, returning
// values aligned with keys: AppendMultiGet with no buffers, so every value
// is a copy the caller owns.
func (n *Node) MultiGet(ctx context.Context, txid string, keys []string) ([][]byte, error) {
	return n.AppendMultiGet(ctx, txid, keys, nil)
}

// AppendMultiGet is the batch form of AppendGet. It returns dst resliced to
// len(keys) (grown if needed), element i holding the value of keys[i]
// appended to the capacity that element already had — so a caller reusing
// one dst across calls reads into its own buffers. On error it returns
// dst[:0].
//
// It provides exactly the semantics of issuing the Gets one by one — each
// key runs Algorithm 1 against the same read set, so the combined result is
// an Atomic Readset and read-your-writes / repeatable reads hold per key —
// but the storage cost collapses: all keys are planned under ONE hold of
// the transaction's mutex, and every payload the data cache misses is
// fetched in one BatchGet round-trip group instead of one point Get per
// key.
//
// Any key that fails (ErrKeyNotFound, ErrNoValidVersion, a storage error)
// fails the whole call; reads recorded before the failure stay in the read
// set, exactly as a sequence of Gets would leave them, so the caller can
// abort or retry the transaction as usual. A payload deleted mid-read by
// the global GC is retried per key, as in Get (the vanished version is
// forgotten and re-selected once); a re-read of an already-read key cannot
// re-select and surfaces ErrVersionVanished, the redo-the-transaction
// signal.
func (n *Node) AppendMultiGet(ctx context.Context, txid string, keys []string, dst [][]byte) ([][]byte, error) {
	if err := n.checkCtx(ctx); err != nil {
		return dst[:0], err
	}
	t, err := n.lookup(txid)
	if err != nil {
		return dst[:0], err
	}
	t.refreshLease(ctx)
	n.metrics.MultiGets.Add(1)
	n.metrics.Reads.Add(int64(len(keys)))
	if len(keys) == 0 {
		return dst[:0], nil
	}
	ctx = telemetry.WithTrace(ctx, t.trace)
	sp := t.trace.StartSpan("node.multiget")
	sp.Annotate("keys", strconv.Itoa(len(keys)))
	start := time.Now()
	out := slices.Grow(dst[:0], len(keys))[:len(keys)]
	for i := range out {
		out[i] = out[i][:0]
	}
	err = n.doMultiGet(ctx, t, txid, keys, out)
	sp.End()
	if err != nil {
		return dst[:0], err
	}
	n.latRead.Observe(time.Since(start))
	return out, nil
}

func (n *Node) doMultiGet(ctx context.Context, t *txnState, txid string, keys []string, out [][]byte) error {
	plans := make([]readPlan, len(keys))

	// Metadata phase: plan every key under one t.mu hold. Version
	// selection takes only stripe read locks per key; the cold-key
	// metadata recovery (partial-metadata mode) runs here too, coalesced
	// with concurrent readers via the singleflight.
	plan := func(idxs []int) error {
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.done {
			return n.finishedErr(txid)
		}
		first := make(map[string]int, len(idxs))
		for _, i := range idxs {
			if j, ok := first[keys[i]]; ok {
				// A duplicated key shares its first occurrence's plan —
				// one selection and ONE vanished-version retry identity,
				// so a payload GC'd mid-call is re-selected for every
				// occurrence instead of the later ones (alreadyRead via
				// the first) spuriously failing the whole transaction.
				plans[i] = plans[j]
				continue
			}
			p, err := n.planRead(ctx, t, keys[i])
			if err != nil {
				return err
			}
			plans[i] = p
			if !p.buffered {
				first[keys[i]] = i
			}
		}
		return nil
	}
	all := make([]int, len(keys))
	for i := range all {
		all[i] = i
	}
	if err := plan(all); err != nil {
		return err
	}

	// Payload phase, outside every lock (the reader pins keep the selected
	// versions' metadata alive, §5.1). Write-buffer and cache hits are
	// served immediately; the misses of all keys share batched round
	// trips. A second pass handles versions that vanished under the GC
	// race.
	pending := make([]int, 0, len(keys))
	for i := range keys {
		if plans[i].buffered {
			out[i] = appendValue(out[i], plans[i].value)
		} else {
			pending = append(pending, i)
		}
	}
	const maxAttempts = 2 // mirrors Get's single vanished-version retry
	for attempt := 0; ; attempt++ {
		missing, err := n.fetchPlanned(ctx, keys, plans, out, pending)
		if err != nil {
			return err
		}
		if len(missing) == 0 {
			return nil
		}
		// Version(s) vanished under the global GC: retry on keys not yet
		// read before this call (fetchPlanned classifies the rest).
		if attempt+1 >= maxAttempts {
			return fmt.Errorf("aft: fetching %s: %w",
				plans[missing[0]].appendStorageKey(nil, keys[missing[0]]), ErrVersionVanished)
		}
		t.mu.Lock()
		if t.done {
			t.mu.Unlock()
			return n.finishedErr(txid)
		}
		for _, i := range missing {
			p := &plans[i]
			n.forgetVanished(t, keys[i], p.target, p.rec, p.pinnedNow)
		}
		t.mu.Unlock()
		if err := plan(missing); err != nil {
			return err
		}
		pending = pending[:0]
		for _, i := range missing {
			if plans[i].buffered {
				out[i] = appendValue(out[i], plans[i].value)
			} else {
				pending = append(pending, i)
			}
		}
	}
}

// fetchPlanned serves the planned indices from the data cache and one
// batched storage fetch, appending into out. It returns the indices whose
// payload is missing from storage AND eligible for the vanished-version
// retry (first reads of a key whose selected version the global GC
// collected mid-read — the vote/bootstrap TOCTOU doGet describes); a
// missing spill payload or a re-read of an already-read key is an error,
// like Get's handling.
func (n *Node) fetchPlanned(ctx context.Context, keys []string, plans []readPlan, out [][]byte, idxs []int) ([]int, error) {
	toFetch := make(map[string][]int)
	var kb [keyBufLen]byte
	for _, i := range idxs {
		p := &plans[i]
		sk := p.appendStorageKey(kb[:0], keys[i])
		if !p.spill && p.rec.Packed {
			if v, ok := n.data.appendTo(appendPackEntryKey(sk, keys[i]), out[i]); ok {
				n.metrics.CacheHits.Add(1)
				out[i] = v
				continue
			}
			if packed, ok := n.data.appendTo(sk, nil); ok {
				n.metrics.CacheHits.Add(1)
				v, err := n.extractPacked(packed, string(sk), keys[i], out[i])
				if err != nil {
					return nil, err
				}
				out[i] = v
				continue
			}
		} else if v, ok := n.data.appendTo(sk, out[i]); ok {
			n.metrics.CacheHits.Add(1)
			out[i] = v
			continue
		}
		toFetch[string(sk)] = append(toFetch[string(sk)], i)
	}
	if len(toFetch) == 0 {
		return nil, nil
	}
	skeys := make([]string, 0, len(toFetch))
	for sk := range toFetch {
		skeys = append(skeys, sk)
	}
	got, err := n.batchFetchPayloads(ctx, skeys)
	if err != nil {
		return nil, err
	}
	var vanished []int
	for _, sk := range skeys {
		waiting := toFetch[sk]
		v, ok := got[sk]
		if !ok {
			for _, i := range waiting {
				p := &plans[i]
				if p.spill {
					// Own spill data cannot be collected under us; this
					// is storage trouble, not a vanished version.
					return nil, fmt.Errorf("aft: fetching %s: %w", sk, storage.ErrNotFound)
				}
				if p.alreadyRead {
					// Repeatable read requires this exact version; the
					// transaction must be redone.
					return nil, fmt.Errorf("aft: fetching %s: %w", sk, ErrVersionVanished)
				}
				vanished = append(vanished, i)
			}
			continue
		}
		if p := &plans[waiting[0]]; !p.spill && p.rec.Packed {
			n.data.adopt(sk, v)
			// One decode serves every key of the pack (and caches the
			// per-key entries); only pack storage keys carry packed plans,
			// so packed-ness is uniform per sk.
			m, err := n.unpackAndCache(v, sk)
			if err != nil {
				return nil, err
			}
			for _, i := range waiting {
				pv, ok := m[keys[i]]
				if !ok {
					return nil, fmt.Errorf("records: key %q missing from packed object", keys[i])
				}
				out[i] = appendValue(out[i], pv)
			}
			continue
		}
		// A storage key serving several result slots must not alias one
		// slice across them (callers may mutate their copy).
		out[waiting[0]] = n.keepFetched(sk, v, out[waiting[0]])
		for _, i := range waiting[1:] {
			out[i] = appendValue(out[i], v)
		}
	}
	return vanished, nil
}

// batchFetchPayloads reads storage keys in one BatchGet (the engine chunks
// by its read-batch limit). Missing keys are absent from the result.
func (n *Node) batchFetchPayloads(ctx context.Context, keys []string) (map[string][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	sp := telemetry.StartSpan(ctx, "storage.batchget")
	sp.Annotate("keys", strconv.Itoa(len(keys)))
	got, err := n.store.BatchGet(ctx, keys)
	sp.End()
	return got, err
}
