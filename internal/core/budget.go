package core

import (
	"context"
	"sort"
	"strconv"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/telemetry"
)

// Memory-budgeted metadata. A node's commit cache and version index grow
// with every transaction it sees, and the data cache with every payload
// it reads; on a long-lived node that is an OOM with a deadline. The
// budget (Config.MetadataBudgetBytes) makes growth a degradation instead:
// EnforceBudget releases memory in cheapest-first order, and past a hard
// ceiling StartTransaction sheds retriable ErrOverloaded — the same
// backpressure contract as admission control, absorbed by client backoff.
//
// Everything released is recoverable. Data-cache entries are copies of
// durable storage state. Superseded records are retired through the same
// local-GC sweep as always. Cold, still-live records are "spilled":
// dropped from memory only after a storage probe confirms their commit
// record is still fetchable, which flips the node into partial-metadata
// mode so a later read of the key re-fetches the record through the
// batched read path (read.go fallback). The probe goes through the
// store, so the chaos harness can land a crash mid-spill — a spill
// interrupted by a storage crash must never lose an acked commit, and
// cannot: the spill never had a write to lose, and records not yet
// confirmed stay cached.
//
// GC interplay: a spilled record keeps its commit-idempotency marker and
// is NOT marked locally-deleted, so the global GC's unanimity vote keeps
// it in storage until a later sweep sees its successor — conservative,
// never unsafe.

// MetadataBytes returns the node's approximate resident metadata bytes:
// cached commit records (commit cache + version index accounting) plus
// the read data cache's payload bytes. This is the quantity
// Config.MetadataBudgetBytes bounds.
func (n *Node) MetadataBytes() int64 {
	return n.metaBytes.Load() + n.data.byteSize()
}

// budgetCeiling is where backpressure starts: 25% above the budget,
// because enforcement runs at maintenance points while commits land
// between them, and shedding the moment the budget is grazed would
// flap.
func budgetCeiling(budget int64) int64 { return budget + budget/4 }

// overBudgetHard reports whether usage is past the shed ceiling after a
// synchronous data-cache-only relief attempt (the only release cheap
// enough for the StartTransaction hot path).
func (n *Node) overBudgetHard() bool {
	budget := n.cfg.MetadataBudgetBytes
	if budget <= 0 {
		return false
	}
	if n.MetadataBytes() <= budgetCeiling(budget) {
		return false
	}
	room := budget - n.metaBytes.Load()
	if room < 0 {
		room = 0
	}
	n.data.shrink(room)
	return n.MetadataBytes() > budgetCeiling(budget)
}

// EnforceBudget brings the node's metadata memory back under
// Config.MetadataBudgetBytes, cheapest relief first: data-cache LRU
// eviction, then the superseded-record sweep, then spilling cold live
// records to their storage-resident form (probe-confirmed, oldest
// first). It returns the number of records spilled. Call it from
// maintenance loops; with no budget configured it is a no-op.
func (n *Node) EnforceBudget(ctx context.Context) (int, error) {
	budget := n.cfg.MetadataBudgetBytes
	if budget <= 0 || n.MetadataBytes() <= budget {
		return 0, nil
	}
	// 1. Data cache first: record metadata has priority over payload
	// copies, so the cache gets whatever room the records leave.
	room := budget - n.metaBytes.Load()
	if room < 0 {
		room = 0
	}
	n.data.shrink(room)
	if n.MetadataBytes() <= budget {
		return 0, nil
	}
	// 2. Superseded records: the ordinary local GC sweep (§5.1), which
	// also records the deletions for the global GC.
	n.SweepLocalMetadata(0)
	if n.MetadataBytes() <= budget {
		return 0, nil
	}
	// 3. Cold live records, oldest first (§5.2.1's mitigation order).
	return n.spillColdRecords(ctx, budget)
}

// spillColdRecords drops cached commit records, oldest first, until the
// budget is met — but only records whose storage-resident copy a
// BatchGet probe just confirmed, and never records pinned by an active
// reader. The probe-then-drop order is the safety argument: a record is
// evicted only while it is re-fetchable, so a read after the spill
// recovers it through the partial-metadata fallback.
func (n *Node) spillColdRecords(ctx context.Context, budget int64) (int, error) {
	byID := n.snapshotRecords()
	ids := make([]idgen.ID, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })

	// The fallback must be live BEFORE the first record disappears, or a
	// concurrent read could observe the gap as a clean miss.
	n.partialMeta.Store(true)

	const probeChunk = 64
	spilled := 0
	for start := 0; start < len(ids) && n.MetadataBytes() > budget; start += probeChunk {
		end := start + probeChunk
		if end > len(ids) {
			end = len(ids)
		}
		chunk := ids[start:end]
		keys := make([]string, len(chunk))
		for i, id := range chunk {
			keys[i] = records.CommitKey(id)
		}
		payloads, err := n.batchFetchPayloads(ctx, keys)
		if err != nil {
			// Storage is unhealthy (or crashed mid-spill): stop evicting.
			// Nothing dropped this round was unconfirmed, so no state is
			// at risk — memory relief just waits for the next pass.
			n.metrics.SpilledRecords.Add(int64(spilled))
			if spilled > 0 {
				n.cfg.Events.Record(telemetry.EventBudgetSpill, n.cfg.NodeID, "",
					"spilled", strconv.Itoa(spilled), "truncated", "storage_error")
			}
			return spilled, err
		}
		// Confirm individual misses twice: under fault injection a partial
		// batch failure can drop keys from the result, and a false "not
		// re-fetchable" keeps the record AND blocks every newer record
		// sharing its keys — too expensive to accept from one flaky probe.
		var missing []string
		for _, k := range keys {
			if _, ok := payloads[k]; !ok {
				missing = append(missing, k)
			}
		}
		if len(missing) > 0 {
			if again, err := n.batchFetchPayloads(ctx, missing); err == nil {
				for k, v := range again {
					payloads[k] = v
				}
			}
		}
		for i, id := range chunk {
			if n.MetadataBytes() <= budget {
				break
			}
			rec := byID[id]
			if _, ok := payloads[keys[i]]; !ok {
				continue // not re-fetchable (GC raced the probe): keep it
			}
			var buf [16]*stripe
			ss := n.appendStripes(buf[:0], rec.WriteSet)
			lockStripes(ss)
			if cached, still := ss[0].commits[id]; !still || cached != rec {
				unlockStripes(ss)
				continue // removed or replaced since the snapshot
			}
			n.pinMu.Lock()
			pinned := n.readers[id] > 0
			n.pinMu.Unlock()
			if pinned {
				unlockStripes(ss)
				continue // an active reader resolves through this record (§5.1)
			}
			// Where this eviction removes a key's newest resident version,
			// leave a refetch floor: the index can no longer prove it holds
			// the key's newest committed version, so reads must verify
			// against storage until a version >= the floor is re-installed
			// (read.go). Keys whose index keeps a newer version need none.
			for _, k := range rec.WriteSet {
				s := n.stripeFor(k)
				if latest, ok := s.index.latest(k); ok && id.Less(latest) {
					continue
				}
				if fl, ok := s.spillFloor[k]; !ok || fl.Less(id) {
					s.spillFloor[k] = id
				}
			}
			// No locally-deleted marker (this is eviction, not GC) and the
			// commit-idempotency marker survives: a client retrying a lost
			// commit response must still get idempotent success.
			n.removeLocked(rec, ss, false)
			unlockStripes(ss)
			spilled++
		}
	}
	n.metrics.SpilledRecords.Add(int64(spilled))
	if spilled > 0 {
		n.cfg.Events.Record(telemetry.EventBudgetSpill, n.cfg.NodeID, "",
			"spilled", strconv.Itoa(spilled))
	}
	return spilled, nil
}
