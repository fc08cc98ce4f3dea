package storage

import "sync/atomic"

// Metrics counts engine operations. Backends embed one and callers read it
// to attribute IO volume in experiments (e.g. the API-call accounting in
// §6.3 and §6.4 of the paper).
type Metrics struct {
	Gets             atomic.Int64
	Puts             atomic.Int64
	Batches          atomic.Int64
	BatchItems       atomic.Int64
	BatchGets        atomic.Int64 // multi-key read requests, one per chunk
	BatchGetItems    atomic.Int64 // keys requested across BatchGet requests
	BatchDeletes     atomic.Int64 // multi-key delete requests, one per chunk
	BatchDeleteItems atomic.Int64 // keys removed across BatchDelete requests
	Deletes          atomic.Int64
	Lists            atomic.Int64
	Transacts        atomic.Int64
	Conflicts        atomic.Int64
}

// Snapshot is a point-in-time copy of a Metrics.
type Snapshot struct {
	Gets, Puts, Batches, BatchItems,
	BatchGets, BatchGetItems, BatchDeletes, BatchDeleteItems,
	Deletes, Lists, Transacts, Conflicts int64
}

// Snapshot returns the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Gets:             m.Gets.Load(),
		Puts:             m.Puts.Load(),
		Batches:          m.Batches.Load(),
		BatchItems:       m.BatchItems.Load(),
		BatchGets:        m.BatchGets.Load(),
		BatchGetItems:    m.BatchGetItems.Load(),
		BatchDeletes:     m.BatchDeletes.Load(),
		BatchDeleteItems: m.BatchDeleteItems.Load(),
		Deletes:          m.Deletes.Load(),
		Lists:            m.Lists.Load(),
		Transacts:        m.Transacts.Load(),
		Conflicts:        m.Conflicts.Load(),
	}
}

// Calls returns the total number of engine requests: a batch is one, and a
// chunked call one per chunk, however many of them went out together.
func (s Snapshot) Calls() int64 {
	return s.Gets + s.Puts + s.Batches + s.BatchGets + s.BatchDeletes +
		s.Deletes + s.Lists + s.Transacts
}

// ItemsPerBatch returns the mean number of items per BatchPut round trip
// (0 when no batches ran): how many writes a caller packed into each
// BatchPut round trip.
func (s Snapshot) ItemsPerBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.BatchItems) / float64(s.Batches)
}

// ItemsPerBatchGet returns the mean number of keys per BatchGet request
// (0 when none ran) — the read-side coalescing evidence: batched record
// fetches at bootstrap and MultiGet payload fetches should sustain well
// above 1.
func (s Snapshot) ItemsPerBatchGet() float64 {
	if s.BatchGets == 0 {
		return 0
	}
	return float64(s.BatchGetItems) / float64(s.BatchGets)
}

// Sub returns the per-counter difference s - prev, for windowed readings.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	return Snapshot{
		Gets:             s.Gets - prev.Gets,
		Puts:             s.Puts - prev.Puts,
		Batches:          s.Batches - prev.Batches,
		BatchItems:       s.BatchItems - prev.BatchItems,
		BatchGets:        s.BatchGets - prev.BatchGets,
		BatchGetItems:    s.BatchGetItems - prev.BatchGetItems,
		BatchDeletes:     s.BatchDeletes - prev.BatchDeletes,
		BatchDeleteItems: s.BatchDeleteItems - prev.BatchDeleteItems,
		Deletes:          s.Deletes - prev.Deletes,
		Lists:            s.Lists - prev.Lists,
		Transacts:        s.Transacts - prev.Transacts,
		Conflicts:        s.Conflicts - prev.Conflicts,
	}
}
