package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
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

// mgBufLen is the batch size MultiGet plans and fetches in stack buffers:
// plans, index lists, fetch slots and storage-key bytes. A larger batch
// takes them from the heap, a few allocations per call.
const mgBufLen = 8

func (n *Node) doMultiGet(ctx context.Context, t *txnState, txid string, keys []string, out [][]byte) error {
	k := len(keys)
	var planBuf [mgBufLen]readPlan
	var idxBuf [3 * mgBufLen]int
	plans, idx := planBuf[:], idxBuf[:]
	if k > mgBufLen {
		plans, idx = make([]readPlan, k), make([]int, 3*k)
	}
	plans = plans[:k]
	// first[i] is the first index holding keys[i]. The second third of
	// idx is the sort's scratch, then the distinct indices, then the
	// pending ones; the last third collects vanished versions.
	first := idx[:k]
	markFirst(first, idx[k:2*k], keys)
	uniq := idx[k : k : 2*k]
	for i, j := range first {
		if i == j {
			uniq = append(uniq, i)
		}
	}

	// Metadata phase: plan every distinct key under one t.mu hold.
	// Version selection takes only stripe read locks per key.
	plan := func(idxs []int) error {
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.done {
			return n.finishedErr(txid)
		}
		for _, i := range idxs {
			p, err := n.planRead(t, keys[i])
			if err != nil {
				return err
			}
			plans[i] = p
		}
		return nil
	}
	if err := plan(uniq); err != nil {
		return err
	}

	// Payload phase, outside every lock (the reader pins keep the selected
	// versions' metadata alive, §5.1). Write-buffer and cache hits are
	// served immediately; the misses of all keys share batched round
	// trips. A second pass handles versions that vanished under the GC
	// race.
	pending := uniq[:0] // filters uniq in place
	for _, i := range uniq {
		if plans[i].buffered {
			out[i] = appendValue(out[i], plans[i].value)
		} else {
			pending = append(pending, i)
		}
	}
	const maxAttempts = 2 // mirrors Get's single vanished-version retry
	for attempt := 0; ; attempt++ {
		missing, err := n.fetchPlanned(ctx, keys, plans, out, pending, idx[2*k:2*k])
		if err != nil {
			return err
		}
		if len(missing) == 0 {
			break
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
	// A duplicated key shares its first occurrence's read — one selection
	// and ONE vanished-version retry identity, so a payload GC'd mid-call
	// is re-selected for every occurrence instead of the later ones
	// (already read via the first) spuriously failing the transaction. It
	// gets a copy: callers may mutate their results.
	for i, j := range first {
		if i != j {
			out[i] = appendValue(out[i], out[j])
		}
	}
	return nil
}

// markFirst sets first[i] to the smallest j with keys[j] == keys[i]. It
// finds duplicates by sorting the indices by key in order, a scratch slice
// as long as keys.
func markFirst(first, order []int, keys []string) {
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := strings.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return a - b
	})
	for r, i := range order {
		if r > 0 && keys[order[r-1]] == keys[i] {
			first[i] = first[order[r-1]]
		} else {
			first[i] = i
		}
	}
}

// fetchSlot is one result slot a MultiGet fetches from storage: index i,
// whose storage key is bytes [off, end) of the fetch's key buffer.
type fetchSlot struct {
	i, off, end int
}

// fetchPlanned serves the planned indices from the data cache and one
// batched storage fetch, appending into out. It appends to vanished, and
// returns, the indices whose payload is missing from storage AND eligible
// for the vanished-version retry (first reads of a key whose selected
// version the global GC collected mid-read — the vote/bootstrap TOCTOU
// doGet describes); a missing spill payload or a re-read of an
// already-read key is an error, like Get's handling.
//
// The misses' storage keys are appended into one buffer, which becomes
// one string the BatchGet keys are sliced from: a fetch allocates that
// string and the key slice, whatever its size. Keys of one inline
// transaction share a storage key, its record's; sorting the slots by key
// groups them, so each storage key is fetched once.
func (n *Node) fetchPlanned(ctx context.Context, keys []string, plans []readPlan, out [][]byte, idxs, vanished []int) ([]int, error) {
	var slotBuf [mgBufLen]fetchSlot
	var keyBuf [mgBufLen * keyBufLen]byte
	slots, kb := slotBuf[:0], keyBuf[:0]
	if len(idxs) > len(slotBuf) {
		slots = make([]fetchSlot, 0, len(idxs))
	}
	for _, i := range idxs {
		p := &plans[i]
		off := len(kb)
		kb = p.appendStorageKey(kb, keys[i])
		probe := kb[off:]
		if !p.spill && p.rec.Inline {
			probe = appendPackEntryKey(probe, keys[i])
		}
		if v, hit := n.data.appendTo(probe, out[i]); hit {
			n.metrics.CacheHits.Add(1)
			out[i] = v
			kb = kb[:off]
			continue
		}
		slots = append(slots, fetchSlot{i, off, len(kb)})
	}
	if len(slots) == 0 {
		return vanished, nil
	}
	slices.SortFunc(slots, func(a, b fetchSlot) int {
		if c := bytes.Compare(kb[a.off:a.end], kb[b.off:b.end]); c != 0 {
			return c
		}
		return a.i - b.i
	})
	all := string(kb)
	skOf := func(s fetchSlot) string { return all[s.off:s.end] }
	// runEnd returns the end of the run of slots sharing slots[r]'s key.
	runEnd := func(r int) int {
		e := r + 1
		for e < len(slots) && skOf(slots[e]) == skOf(slots[r]) {
			e++
		}
		return e
	}
	skeys := make([]string, 0, len(slots))
	for r := 0; r < len(slots); r = runEnd(r) {
		skeys = append(skeys, skOf(slots[r]))
	}
	got, err := n.batchFetchPayloads(ctx, skeys)
	if err != nil {
		return nil, err
	}
	for r, e := 0, 0; r < len(slots); r = e {
		e = runEnd(r)
		sk, waiting := skOf(slots[r]), slots[r:e]
		v, ok := got[sk]
		if !ok {
			for _, s := range waiting {
				p := &plans[s.i]
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
				vanished = append(vanished, s.i)
			}
			continue
		}
		if p := &plans[waiting[0].i]; !p.spill && p.rec.Inline {
			// One fetched record serves every key it carries; only record
			// storage keys carry inline plans, so inline-ness is uniform
			// per sk.
			for _, s := range waiting {
				var err error
				if out[s.i], err = n.keepInline(sk, keys[s.i], v, out[s.i]); err != nil {
					return nil, err
				}
			}
			continue
		}
		// A storage key serving several result slots must not alias one
		// slice across them (callers may mutate their copy).
		out[waiting[0].i] = n.keepFetched(sk, v, out[waiting[0].i])
		for _, s := range waiting[1:] {
			out[s.i] = appendValue(out[s.i], v)
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
