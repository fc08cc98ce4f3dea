// Package multicast implements the background commit-set exchange of §4:
// each AFT node periodically (default every 1 second) gathers the
// transactions it committed since the last round and broadcasts them to all
// other nodes, pruning locally superseded transactions first (§4.1,
// Algorithm 2). The fault manager receives the stream *without* pruning
// (§4.2) so that committed-but-unannounced transactions can be recovered.
package multicast

import (
	"sync"
	"sync/atomic"
	"time"

	"aft/internal/records"
	"aft/internal/telemetry"
)

// Peer is the node-side surface the multicast protocol needs. *core.Node
// implements it.
type Peer interface {
	// ID names the peer.
	ID() string
	// Drain returns commit records accumulated since the last call.
	Drain() []*records.CommitRecord
	// DrainPruned is Drain for a round that prunes (§4.1): superseded[i]
	// reports whether recs[i] is superseded locally (Algorithm 2). The peer
	// classifies in one step with the drain, so a local version that
	// supersedes a pruned record is in this round's drain or an earlier
	// one — never left for the next round while the record it supersedes
	// is pruned from this one.
	DrainPruned() (recs []*records.CommitRecord, superseded []bool)
	// MergeRemoteCommits installs records committed by other peers.
	MergeRemoteCommits(recs []*records.CommitRecord)
	// SkipPruned learns of records another peer's broadcast round pruned
	// and will never deliver, so the peer's GC vote does not wait on them.
	SkipPruned(recs []*records.CommitRecord)
}

// Tap receives unpruned commit streams; the fault manager registers one.
type Tap func(from string, recs []*records.CommitRecord)

// BusMetrics counts multicast traffic, used by the pruning ablation bench.
// Counters are atomic so concurrent per-peer flushes do not serialize on a
// metrics lock.
type BusMetrics struct {
	Broadcast  atomic.Int64 // records sent to the other peers
	Deliveries atomic.Int64 // record×peer deliveries (the fan-out cost)
	Pruned     atomic.Int64 // records suppressed by supersedence pruning
	Rounds     atomic.Int64
}

// BusSnapshot is a point-in-time copy of BusMetrics.
type BusSnapshot struct {
	Broadcast, Deliveries, Pruned, Rounds int64
}

// Snapshot returns a copy of the counters.
func (m *BusMetrics) Snapshot() BusSnapshot {
	return BusSnapshot{Broadcast: m.Broadcast.Load(), Deliveries: m.Deliveries.Load(),
		Pruned: m.Pruned.Load(), Rounds: m.Rounds.Load()}
}

// Bus is an in-process multicast fabric connecting the nodes of one
// deployment. (Networked deployments exchange the same messages over the
// wire protocol; the Bus is the simulation substrate.)
type Bus struct {
	mu      sync.Mutex
	peers   map[string]Peer
	taps    []Tap
	metrics BusMetrics
}

// NewBus returns an empty Bus.
func NewBus() *Bus {
	return &Bus{peers: make(map[string]Peer)}
}

// Register adds a peer to the fabric.
func (b *Bus) Register(p Peer) {
	b.mu.Lock()
	b.peers[p.ID()] = p
	b.mu.Unlock()
}

// Unregister removes a peer (node failure or shutdown).
func (b *Bus) Unregister(id string) {
	b.mu.Lock()
	delete(b.peers, id)
	b.mu.Unlock()
}

// Tap subscribes f to the unpruned commit stream of every peer.
func (b *Bus) Tap(f Tap) {
	b.mu.Lock()
	b.taps = append(b.taps, f)
	b.mu.Unlock()
}

// Metrics returns the bus traffic counters.
func (b *Bus) Metrics() *BusMetrics { return &b.metrics }

// Peers returns the registered peer IDs.
func (b *Bus) Peers() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.peers))
	for id := range b.peers {
		out = append(out, id)
	}
	return out
}

// FlushPeer runs one multicast round for peer p: drain, tap (unpruned),
// prune superseded (§4.1), deliver to all other registered peers. Returns
// the number of records sent.
func (b *Bus) FlushPeer(p Peer, prune bool) int {
	var recs []*records.CommitRecord
	var superseded []bool
	if prune {
		recs, superseded = p.DrainPruned()
	} else {
		recs = p.Drain()
	}
	b.mu.Lock()
	taps := append([]Tap(nil), b.taps...)
	others := make([]Peer, 0, len(b.peers))
	for id, q := range b.peers {
		if id != p.ID() {
			others = append(others, q)
		}
	}
	b.mu.Unlock()

	if len(recs) == 0 {
		return 0
	}
	// The fault manager stream is never pruned (§4.2).
	for _, tap := range taps {
		tap(p.ID(), recs)
	}
	send := recs
	var pruned []*records.CommitRecord
	if prune {
		send = send[:0:0]
		for i, rec := range recs {
			if superseded[i] {
				pruned = append(pruned, rec)
				continue
			}
			send = append(send, rec)
		}
	}
	for _, q := range others {
		q.MergeRemoteCommits(send)
		// Every peer votes in the global GC, so each must learn what it
		// will never receive.
		if len(pruned) > 0 {
			q.SkipPruned(pruned)
		}
	}
	b.metrics.Broadcast.Add(int64(len(send)))
	b.metrics.Deliveries.Add(int64(len(send) * len(others)))
	b.metrics.Pruned.Add(int64(len(pruned)))
	b.metrics.Rounds.Add(1)
	return len(send)
}

// Multicaster runs the periodic broadcast loop for one node (the
// "background thread" of §4).
type Multicaster struct {
	bus    *Bus
	peer   Peer
	period time.Duration
	prune  bool

	mu      sync.Mutex
	stop    chan struct{}
	stopped sync.WaitGroup
	// roundMu serialises this peer's drain→deliver rounds. Without it a
	// Flush that finds the queue already drained by the ticker's round
	// returns while that round is still delivering, so Flush would not be
	// the barrier its callers read behind.
	roundMu sync.Mutex
	// tracer, when set, records each round as a system trace (telemetry.go).
	tracer *telemetry.Tracer
}

// NewMulticaster wires peer to bus with the given broadcast period (the
// paper uses 1 second; tests use milliseconds). Pruning is controlled by
// prune so the §4.1 optimization can be ablated.
func NewMulticaster(bus *Bus, peer Peer, period time.Duration, prune bool) *Multicaster {
	if period <= 0 {
		period = time.Second
	}
	return &Multicaster{bus: bus, peer: peer, period: period, prune: prune}
}

// Start registers the peer and launches the broadcast loop. It is a no-op
// if already started.
func (m *Multicaster) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stop != nil {
		return
	}
	m.bus.Register(m.peer)
	m.stop = make(chan struct{})
	stop := m.stop
	m.stopped.Add(1)
	go func() {
		defer m.stopped.Done()
		ticker := time.NewTicker(m.period)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				m.flushTraced()
			}
		}
	}()
}

// Flush runs one broadcast round immediately (tests and shutdown paths).
// When it returns, every record the peer committed before the call has
// been delivered — by this round or by the periodic one it waited out.
func (m *Multicaster) Flush() int { return m.flushTraced() }

// round runs one drain→deliver round, exclusive of the peer's other rounds.
func (m *Multicaster) round() int {
	m.roundMu.Lock()
	defer m.roundMu.Unlock()
	return m.bus.FlushPeer(m.peer, m.prune)
}

// Settle returns once the round in progress at the call, if any, has
// delivered. Flush covers this peer's own records, but a round of another
// peer that is still delivering can carry the version that made this peer
// prune an older one; so a barrier across peers flushes them all and then
// settles them all.
func (m *Multicaster) Settle() {
	m.roundMu.Lock()
	m.roundMu.Unlock()
}

// Stop halts the loop, runs a final flush, and unregisters the peer.
func (m *Multicaster) Stop() {
	m.mu.Lock()
	if m.stop == nil {
		m.mu.Unlock()
		return
	}
	close(m.stop)
	m.stop = nil
	m.mu.Unlock()
	m.stopped.Wait()
	m.round()
	m.bus.Unregister(m.peer.ID())
}

// Kill halts the loop WITHOUT flushing — simulating a node crash that
// commits transactions but dies before broadcasting them (the liveness
// hazard the fault manager exists to cover, §4.2).
func (m *Multicaster) Kill() {
	m.mu.Lock()
	if m.stop != nil {
		close(m.stop)
		m.stop = nil
	}
	m.mu.Unlock()
	m.stopped.Wait()
	m.bus.Unregister(m.peer.ID())
}
