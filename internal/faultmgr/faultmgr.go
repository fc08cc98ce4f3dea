// Package faultmgr implements AFT's fault manager (§4.2) and the global
// data garbage collector it doubles as (§5.2).
//
// The fault manager lives off the request critical path. It receives every
// node's committed-transaction stream without pruning, periodically scans
// the Transaction Commit Set in storage for commit records no live node
// still holds for its next round — records persisted by a node that failed
// before broadcasting them — and re-announces those to every node,
// guaranteeing that an acknowledged commit is eventually visible
// everywhere (liveness). A record a live node has yet to announce is left
// to that node's multicast round, so a healthy commit reaches the manager
// once, through the tap, and a scan fetches only what is new and orphaned.
//
// As the global GC, it runs Algorithm 2 over its own commit index to find
// superseded transactions, asks all nodes whether they have locally
// deleted each one (§5.1), and — only when *every* node has — deletes the
// transaction's key versions and commit record from storage. It is
// stateless with respect to storage: if it fails, it simply rescans the
// Commit Set (§4.2).
package faultmgr

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/telemetry"
)

// Node is the surface the fault manager needs from an AFT node.
// *core.Node implements it.
type Node interface {
	ID() string
	MergeRemoteCommits(recs []*records.CommitRecord)
	// PendingAnnounce returns the records the node will hand to the tap on
	// its next multicast round (read-only). The storage scan skips them.
	PendingAnnounce() []*records.CommitRecord
	// LocallyDeleted reports, aligned with recs, whether the node's local
	// GC has deleted each record (§5.2).
	LocallyDeleted(recs []*records.CommitRecord) []bool
	ForgetDeleted(recs []*records.CommitRecord)
}

// Membership supplies the current node set. Knowing all nodes is a
// classical membership problem requiring coordination; the paper delegates
// it to Kubernetes (§5.2 footnote) and we delegate it to the cluster layer.
type Membership interface {
	Nodes() []Node
}

// StaticMembership is a fixed node set, for tests and single-shot tools.
type StaticMembership []Node

// Nodes implements Membership.
func (s StaticMembership) Nodes() []Node { return s }

// Metrics counts fault-manager activity. Counters are atomic: the ingest
// tap runs on every node's multicast round and must not share a lock with
// the slower GC paths.
type Metrics struct {
	Ingested        atomic.Int64 // records received via (unpruned) broadcast taps
	Recovered       atomic.Int64 // records found only by scanning storage
	TxnsDeleted     atomic.Int64 // transactions whose data the global GC removed
	VersionsDeleted atomic.Int64 // key versions removed from storage
}

// MetricsSnapshot is a point-in-time copy of Metrics.
type MetricsSnapshot struct {
	Ingested, Recovered, TxnsDeleted, VersionsDeleted int64
}

// Snapshot returns a copy of the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{Ingested: m.Ingested.Load(), Recovered: m.Recovered.Load(),
		TxnsDeleted: m.TxnsDeleted.Load(), VersionsDeleted: m.VersionsDeleted.Load()}
}

// Manager is the fault manager / global GC.
type Manager struct {
	store      storage.Store
	membership Membership

	mu sync.Mutex
	// commits is the manager's own view of all committed transactions,
	// fed by unpruned broadcast streams and storage scans.
	commits map[idgen.ID]*records.CommitRecord
	// latest maps each key to the newest committed version the manager
	// knows, for Algorithm 2.
	latest map[string]idgen.ID
	// tracer, when non-nil, records sweeps as system traces (telemetry.go).
	tracer *telemetry.Tracer

	metrics Metrics
}

// New returns a Manager over the shared store with the given membership.
func New(store storage.Store, membership Membership) *Manager {
	return &Manager{
		store:      store,
		membership: membership,
		commits:    make(map[idgen.ID]*records.CommitRecord),
		latest:     make(map[string]idgen.ID),
	}
}

// Metrics returns the manager's counters.
func (m *Manager) Metrics() *Metrics { return &m.metrics }

// Ingest consumes one node's unpruned commit stream; register it as a
// multicast bus tap.
func (m *Manager) Ingest(from string, recs []*records.CommitRecord) {
	ingestStart := time.Now()
	var traced []*records.CommitRecord
	m.mu.Lock()
	for _, rec := range recs {
		if m.installLocked(rec) {
			m.metrics.Ingested.Add(1)
			if rec.TraceID != "" {
				traced = append(traced, rec)
			}
		}
	}
	m.mu.Unlock()
	// Sampled records attribute their arrival at the fault manager back
	// to the originating trace — the cross-process hop that makes a
	// commit's announcement visible on the stitched /traces view.
	for _, rec := range traced {
		m.tracer.ForeignSpan(rec.TraceID, "faultmgr.ingest",
			ingestStart, time.Since(ingestStart),
			map[string]string{"tx": rec.UUID, "from": from})
	}
}

// installLocked records a commit in the manager's index. Callers hold m.mu.
func (m *Manager) installLocked(rec *records.CommitRecord) bool {
	id := rec.ID()
	if _, ok := m.commits[id]; ok {
		return false
	}
	m.commits[id] = rec
	for _, k := range rec.WriteSet {
		if cur, ok := m.latest[k]; !ok || cur.Less(id) {
			m.latest[k] = id
		}
	}
	return true
}

// KnownCommits returns the number of transactions in the manager's index.
func (m *Manager) KnownCommits() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.commits)
}

// ScanStorage reads the Transaction Commit Set and re-announces to every
// node any commit record the manager had not already received via
// broadcast and no live node still holds for its next multicast round
// (§4.2): this recovers commits acknowledged by a node that failed before
// its multicast round. A record still queued at a live node reaches the
// manager through the tap at that node's round; if the node dies first,
// it leaves the membership and the next scan fetches the record.
//
// Failure safety: nothing is installed into the manager's index until
// every unknown record has been fetched. A scan that installed records as
// it went and then died on a storage error would swallow those commits
// forever — known to the manager (so no later scan re-announces them) yet
// delivered to no node; the chaos harness reproduces exactly that as a
// lost write. Fetching through one BatchGet round-trip group also shrinks
// the scan's fallible-call count from O(records) to O(1).
func (m *Manager) ScanStorage(ctx context.Context) error {
	scanStart := time.Now()
	keys, err := m.store.List(ctx, records.CommitPrefix)
	if err != nil {
		return err
	}
	var unknown []pendingKey
	m.mu.Lock()
	for i, sk := range keys {
		id, err := records.ParseCommitKey(sk)
		if err != nil {
			continue
		}
		if _, known := m.commits[id]; !known {
			if unknown == nil {
				unknown = make([]pendingKey, 0, len(keys)-i)
			}
			unknown = append(unknown, pendingKey{key: sk, id: id})
		}
	}
	m.mu.Unlock()
	want := m.unannounced(unknown)
	if len(want) == 0 {
		return nil
	}
	payloads, err := m.store.BatchGet(ctx, want)
	if err != nil {
		return err // nothing installed: the next scan recovers everything
	}
	var missed []*records.CommitRecord
	m.mu.Lock()
	for _, sk := range want {
		payload, ok := payloads[sk]
		if !ok {
			continue // concurrently deleted
		}
		rec, err := records.UnmarshalCommitRecord(payload)
		if err != nil {
			continue // unreadable record: skip, never delete data we can't attribute
		}
		if m.installLocked(rec) {
			missed = append(missed, rec)
		}
	}
	m.mu.Unlock()
	if len(missed) == 0 {
		return nil
	}
	m.metrics.Recovered.Add(int64(len(missed)))
	// A recovered record carrying a sampled trace ID marks the recovery
	// on that trace: the fault manager found a commit its node never
	// announced (it died first) and is about to re-announce it.
	for _, rec := range missed {
		if rec.TraceID != "" {
			m.tracer.ForeignSpan(rec.TraceID, "faultmgr.recover",
				scanStart, time.Since(scanStart),
				map[string]string{"tx": rec.UUID, "node": rec.Node})
		}
	}
	for _, n := range m.membership.Nodes() {
		n.MergeRemoteCommits(missed)
	}
	return nil
}

// pendingKey is a commit key the manager does not know, with its parsed ID.
type pendingKey struct {
	key    string
	id     idgen.ID
	queued bool
}

// unannounced returns, in List order, the keys of unknown that no live
// node still holds in its announce queue. unknown is sorted by ID in place
// so each queued record is found by binary search: the cost is the queues'
// length times log(unknown), with no per-record allocation.
func (m *Manager) unannounced(unknown []pendingKey) []string {
	if len(unknown) == 0 {
		return nil
	}
	slices.SortFunc(unknown, func(a, b pendingKey) int { return a.id.Compare(b.id) })
	left := len(unknown)
	for _, n := range m.membership.Nodes() {
		for _, rec := range n.PendingAnnounce() {
			i, ok := slices.BinarySearchFunc(unknown, rec.ID(), func(p pendingKey, id idgen.ID) int {
				return p.id.Compare(id)
			})
			if ok && !unknown[i].queued {
				unknown[i].queued = true
				left--
			}
		}
	}
	if left == 0 {
		return nil
	}
	want := make([]string, 0, left)
	for _, p := range unknown {
		if !p.queued {
			want = append(want, p.key)
		}
	}
	// Back to List's key order: recoveries are fetched and announced in
	// storage order, which seeded campaigns replay bit for bit.
	slices.Sort(want)
	return want
}

// supersededLocked is Algorithm 2 over the manager's index.
func (m *Manager) supersededLocked(rec *records.CommitRecord) bool {
	if len(rec.WriteSet) == 0 {
		return true
	}
	id := rec.ID()
	for _, k := range rec.WriteSet {
		latest, ok := m.latest[k]
		if !ok || !id.Less(latest) {
			return false
		}
	}
	return true
}

// CollectOnce runs one global GC round (§5.2): find superseded
// transactions, confirm every node has locally deleted them, then delete
// their key versions, spill data, and commit records from storage, oldest
// first. maxDelete bounds one round (0 = unlimited). It returns the IDs
// whose data was deleted.
func (m *Manager) CollectOnce(ctx context.Context, maxDelete int) ([]idgen.ID, error) {
	// Phase 1: candidate list, oldest first (§5.2.1 mitigation).
	m.mu.Lock()
	candidates := make([]*records.CommitRecord, 0)
	for _, rec := range m.commits {
		if m.supersededLocked(rec) {
			candidates = append(candidates, rec)
		}
	}
	m.mu.Unlock()
	slices.SortFunc(candidates, func(a, b *records.CommitRecord) int {
		return a.ID().Compare(b.ID())
	})
	if maxDelete > 0 && len(candidates) > maxDelete {
		candidates = candidates[:maxDelete]
	}
	if len(candidates) == 0 {
		return nil, nil
	}

	// Phase 2: unanimity (§5.2): every node must have locally deleted the
	// metadata. vetoed is aligned with candidates.
	nodes := m.membership.Nodes()
	vetoed := make([]bool, len(candidates))
	for _, n := range nodes {
		for i, deleted := range n.LocallyDeleted(candidates) {
			if !deleted {
				vetoed[i] = true
			}
		}
	}

	// Phase 3: delete data and metadata for fully confirmed transactions.
	// All confirmed transactions' key versions (and spill payloads) are
	// removed first, in one shared BatchDelete call that the engine chunks
	// by its limit and sends together — M versions cost ceil(M/limit)
	// requests instead of M, and one round trip per
	// storage.MaxCallsInFlight of those — and the commit records only after
	// every payload is gone, preserving the per-transaction record-last
	// ordering: a crash in between leaves records a rescan re-processes
	// (deletes are idempotent), never data without an attributable record.
	// An inline record holds its versions itself: its transaction is one
	// key to delete, in the second call.
	//
	// Every record carries its storage keys (records.CommitRecord.Seal),
	// so a delete list is a slice of strings already built: a round
	// allocates per list, not per key.
	collected := make([]*records.CommitRecord, 0, len(candidates))
	var versionCount, versionKeys int
	for i, rec := range candidates {
		if !vetoed[i] {
			collected = append(collected, rec)
			versionCount += len(rec.WriteSet)
			if !rec.Inline {
				versionKeys += len(rec.WriteSet)
			}
		}
	}
	if len(collected) == 0 {
		return nil, nil
	}
	versions, recordKeys := make([]string, 0, versionKeys), make([]string, 0, len(collected))
	for _, rec := range collected {
		if !rec.Inline {
			for i := range rec.WriteSet {
				versions = append(versions, rec.EntryKey(i))
			}
		}
		recordKeys = append(recordKeys, rec.Key())
	}
	if versionKeys > 0 {
		if err := m.store.BatchDelete(ctx, versions); err != nil {
			return nil, err
		}
	}
	m.metrics.VersionsDeleted.Add(int64(versionCount))
	if err := m.store.BatchDelete(ctx, recordKeys); err != nil {
		return nil, err
	}
	removed := make([]idgen.ID, len(collected))
	m.mu.Lock()
	for i, rec := range collected {
		removed[i] = rec.ID()
		delete(m.commits, removed[i])
	}
	m.mu.Unlock()
	for _, n := range nodes {
		n.ForgetDeleted(collected)
	}
	m.metrics.TxnsDeleted.Add(int64(len(collected)))
	collectEnd := time.Now()
	for _, rec := range collected {
		if rec.TraceID != "" {
			m.tracer.ForeignSpan(rec.TraceID, "faultmgr.collect",
				collectEnd, 0,
				map[string]string{"tx": rec.UUID})
		}
	}
	return removed, nil
}

// SweepSpills garbage-collects orphaned spill data (§3.3): intermediary
// writes proactively persisted by a saturated write buffer whose
// transaction crashed before committing. A spill directory is named
// "<startTimestamp>_<uuid>"; it is an orphan if no commit record with that
// UUID exists and its start timestamp is older than cutoff (a grace period
// protects in-flight transactions). A committed transaction's spill objects
// are named by its record and deleted with its versions (CollectOnce), so
// orphans are rare: the sweep lists the Commit Set at most once, and only
// when some spill is old enough to be one, and deletes every orphan in one
// BatchDelete. Returns the number of keys deleted.
func (m *Manager) SweepSpills(ctx context.Context, cutoff int64) (int, error) {
	keys, err := m.store.List(ctx, records.SpillPrefix)
	if err != nil {
		return 0, err
	}
	// Commit records reference live spill dirs; collect them.
	live := make(map[string]bool)
	m.mu.Lock()
	for _, rec := range m.commits {
		if rec.SpillDir != "" {
			live[rec.SpillDir] = true
		}
	}
	m.mu.Unlock()

	var committed map[string]bool // UUIDs with a commit record in storage
	var orphans []string
	for _, sk := range keys {
		dir, _, err := records.ParseSpillKey(sk)
		if err != nil || live[dir] {
			continue
		}
		id, err := idgen.Parse(dir)
		if err != nil || id.Timestamp >= cutoff {
			continue // malformed or within the grace period
		}
		// The transaction may have committed without the manager knowing;
		// check storage for a commit record carrying its UUID first.
		if committed == nil {
			if committed, err = m.committedUUIDs(ctx); err != nil {
				return 0, err
			}
		}
		if !committed[id.UUID] {
			orphans = append(orphans, sk)
		}
	}
	if len(orphans) == 0 {
		return 0, nil
	}
	if err := m.store.BatchDelete(ctx, orphans); err != nil {
		return 0, err
	}
	return len(orphans), nil
}

// committedUUIDs lists the Commit Set in storage and returns the UUIDs of
// its records.
func (m *Manager) committedUUIDs(ctx context.Context) (map[string]bool, error) {
	keys, err := m.store.List(ctx, records.CommitPrefix)
	if err != nil {
		return nil, err
	}
	out := make(map[string]bool, len(keys))
	for _, sk := range keys {
		if id, err := records.ParseCommitKey(sk); err == nil {
			out[id.UUID] = true
		}
	}
	return out, nil
}
