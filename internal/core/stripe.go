package core

// stripe.go partitions the node's metadata core across lock stripes so the
// hot path runs in parallel on a multi-core node (the intra-node half of
// the ROADMAP's scaling goal; the paper's node plateaus near 40 clients on
// exactly this shared-data-structure contention, §6.5.1).
//
// Each user key hashes to one stripe. A stripe owns the key's slice of the
// version index plus the commit records and locally-deleted markers of
// every transaction that wrote at least one of its keys. A commit record
// whose write set spans stripes is registered in each of them (the pointer
// is shared, not the record), under the invariant that a record is present
// either in ALL stripes of its write set or in NONE — multi-stripe
// mutations take every affected stripe lock before touching any of them.
//
// Lock ordering, node-wide:
//
//	txnState.mu  →  stripe locks (ascending stripe index)  →  pinMu
//	announceMu   →  stripe locks  →  recMu
//
// The transaction table lock (tmu) and the multicast queue lock (recMu)
// are leaves: never held while acquiring any other lock. Multi-stripe
// acquisitions — install, sweep, merge, supersedence checks — always lock
// ascending, so the wait-for graph stays acyclic. The read path takes only
// read locks on the stripes it touches; merges and sweeps write-lock one
// record's stripes at a time instead of freezing the node.

import (
	"slices"
	"sync"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/strhash"
)

// numStripes is the metadata stripe count: enough to keep core-count×2
// writers from colliding, small enough that whole-node scans (sweep,
// KnownCommits) stay cheap. A power of two, so the hash's low bits select
// the stripe.
const (
	numStripes = 64
	stripeMask = numStripes - 1
)

// stripe is one lock-striped slice of the metadata core.
type stripe struct {
	mu sync.RWMutex
	// index maps each user key hashing to this stripe to its known
	// committed versions in ascending ID order.
	index versionIndex
	// commits holds the Commit Set Cache entries of every transaction
	// whose write set touches this stripe (shared pointers; see the
	// all-or-none invariant above).
	commits map[idgen.ID]*records.CommitRecord
	// installed holds the node's install sequence (Node.installSeq) of
	// each record in commits: when it became selectable here. The local
	// sweep reads it (retirableLocked).
	installed map[idgen.ID]uint64
	// locallyDeleted mirrors commits for transactions the local GC has
	// removed, answering the global GC's unanimity queries (§5.2).
	locallyDeleted map[idgen.ID]*records.CommitRecord
}

func newStripe() *stripe {
	return &stripe{
		index:          make(versionIndex),
		commits:        make(map[idgen.ID]*records.CommitRecord),
		installed:      make(map[idgen.ID]uint64),
		locallyDeleted: make(map[idgen.ID]*records.CommitRecord),
	}
}

// stripeHash is FNV-1a over the user key.
func stripeHash(key string) uint32 { return strhash.FNV32a(key) }

// stripeFor returns the stripe owning key.
func (n *Node) stripeFor(key string) *stripe {
	return n.stripes[int(stripeHash(key))&stripeMask]
}

// appendStripes appends the distinct stripes touched by writeSet to dst in
// ascending stripe-index order — the canonical multi-stripe lock order. An
// empty write set maps to stripe 0 so callers always get a non-empty set.
// Callers pass a stack buffer (or reuse one across records), so finding a
// record's stripes allocates nothing for any write set of up to 16 stripes.
func (n *Node) appendStripes(dst []*stripe, writeSet []string) []*stripe {
	if len(writeSet) == 0 {
		return append(dst, n.stripes[0])
	}
	// The usual write set's indexes fit the stack buffer.
	var buf [16]int
	idxs := buf[:0]
	for _, k := range writeSet {
		idxs = append(idxs, int(stripeHash(k))&stripeMask)
	}
	slices.Sort(idxs)
	prev := -1
	for _, i := range idxs {
		if i != prev {
			dst = append(dst, n.stripes[i])
			prev = i
		}
	}
	return dst
}

// homeStripe returns one stripe of rec's write set. A record is cached,
// and marked locally deleted, in all of its stripes or in none, so any one
// of them answers the global GC's questions about it under a single read
// lock.
func (n *Node) homeStripe(rec *records.CommitRecord) *stripe {
	if len(rec.WriteSet) == 0 {
		return n.stripes[0]
	}
	return n.stripeFor(rec.WriteSet[0])
}

// lockStripes write-locks ss, which must already be in ascending order.
func lockStripes(ss []*stripe) {
	for _, s := range ss {
		s.mu.Lock()
	}
}

func unlockStripes(ss []*stripe) {
	for i := len(ss) - 1; i >= 0; i-- {
		ss[i].mu.Unlock()
	}
}

// rlockStripes read-locks ss (ascending order, same discipline as
// lockStripes so readers and writers cannot deadlock).
func rlockStripes(ss []*stripe) {
	for _, s := range ss {
		s.mu.RLock()
	}
}

func runlockStripes(ss []*stripe) {
	for i := len(ss) - 1; i >= 0; i-- {
		ss[i].mu.RUnlock()
	}
}

// installLocked makes a committed transaction visible locally: it enters
// the Commit Set Cache of every stripe its write set touches and its write
// set is indexed. ss must be rec's stripes (appendStripes), write-locked by
// the caller.
func (n *Node) installLocked(rec *records.CommitRecord, ss []*stripe) bool {
	id := rec.ID()
	if _, ok := ss[0].commits[id]; ok {
		return false // already cached
	}
	if _, ok := ss[0].locallyDeleted[id]; ok {
		return false // already GC'd locally; do not resurrect
	}
	seq := n.installSeq.Add(1)
	for _, s := range ss {
		s.commits[id] = rec
		s.installed[id] = seq
	}
	for _, k := range rec.WriteSet {
		n.stripeFor(k).index.insert(k, id)
	}
	n.metaCount.Add(1)
	n.metaBytes.Add(int64(rec.ApproxBytes()))
	return true
}

// removeLocked undoes installLocked: the record leaves every stripe's
// Commit Set Cache and index, and its cached payloads are evicted. When
// markDeleted is set the removal is recorded for the global GC (§5.2).
// The caller must hold write locks covering all of rec's stripes.
func (n *Node) removeLocked(rec *records.CommitRecord, ss []*stripe, markDeleted bool) {
	id := rec.ID()
	for _, s := range ss {
		delete(s.commits, id)
		delete(s.installed, id)
	}
	for _, k := range rec.WriteSet {
		n.stripeFor(k).index.remove(k, id)
	}
	n.evictPayloads(rec)
	if markDeleted {
		for _, s := range ss {
			s.locallyDeleted[id] = rec
		}
	}
	n.metaCount.Add(-1)
	n.metaBytes.Add(-int64(rec.ApproxBytes()))
}

// evictPayloads drops rec's cached payloads: nothing can reference them
// once the version is unindexed, and keeping them would squat LRU slots.
// Keys are assembled in a stack buffer: evicting builds no strings.
func (n *Node) evictPayloads(rec *records.CommitRecord) {
	if n.data == nil {
		return
	}
	var kb [keyBufLen]byte
	for _, k := range rec.WriteSet {
		sk := rec.AppendStorageKeyFor(kb[:0], k)
		if rec.Inline {
			sk = appendPackEntryKey(sk, k)
		}
		n.data.evict(sk)
	}
}

// snapshotRecords returns a deduplicated id→record snapshot of the Commit
// Set Cache, taking one stripe read lock at a time. The snapshot is not a
// consistent cut — callers (sweep, KnownCommits) revalidate per record
// under write locks before acting.
func (n *Node) snapshotRecords() map[idgen.ID]*records.CommitRecord {
	out := make(map[idgen.ID]*records.CommitRecord)
	for _, s := range n.stripes {
		s.mu.RLock()
		for id, rec := range s.commits {
			out[id] = rec
		}
		s.mu.RUnlock()
	}
	return out
}
