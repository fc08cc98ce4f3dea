package chaos

// netchaos.go is the network edge of the fault harness: a net.Listener
// wrapper layered under wire.Server that injects the failure modes a
// real network brings — one-way and two-way blackhole partitions,
// mid-frame connection resets, per-frame delay spikes, and slow-drip
// reads (a "limping" peer that trickles bytes).
//
// Determinism contract (mirroring the storage wrapper): probabilistic
// decisions are hash-derived from (seed, conn index, frame index), never
// drawn from a shared rng stream, so they are independent of goroutine
// interleaving; conn indices and write-frame indices are deterministic
// whenever a single sequential driver produces the traffic. Partitions
// auto-heal after a fixed number of accepts — each failed client attempt
// redials, so "N accepts" is a deterministic count of shed attempts
// under a sequential driver. Scheduled resets fire on the global
// write-frame clock, like CrashAfter fires on the storage-op clock.

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aft/internal/latency"
	"aft/internal/strhash"
	"aft/internal/telemetry"
)

// PartitionMode classifies a blackhole partition's direction.
type PartitionMode int

// Partition modes.
const (
	// PartitionNone: no partition.
	PartitionNone PartitionMode = iota
	// PartitionBoth drops both directions: the server neither reads
	// requests nor delivers responses. The cleanest failure — nothing
	// reaches the node, clients time out and redo.
	PartitionBoth
	// PartitionInbound drops client->server traffic: server reads block
	// until heal. Responses cannot be produced without requests, so the
	// client experience matches PartitionBoth, but blocked handler
	// goroutines pile up server-side and must drain cleanly on heal.
	PartitionInbound
	// PartitionOutbound swallows server->client traffic while requests
	// still flow — the gray failure: the node does the work (commits
	// happen!) but every ack is lost. Clients time out, redo, and must
	// settle indeterminate commits through the §3.3.1 abort-or-redo
	// path; abandoned server-side transactions are reclaimed by
	// Node.ReapExpired.
	PartitionOutbound
)

// NetConfig parameterizes the network fault injector. Rates are
// probabilities in [0, 1].
type NetConfig struct {
	// Seed drives every hash-derived decision.
	Seed int64
	// DelayRate is the per-read-frame delay-spike probability.
	DelayRate float64
	// Delay is the injected spike duration (modeled time, scaled by
	// Sleeper); 0 defaults to 5ms.
	Delay time.Duration
	// SlowDripRate is the per-conn probability that ALL of the conn's
	// reads are dripped in dripChunk-byte slices (a limping peer).
	SlowDripRate float64
	// DripDelay is the modeled per-dripped-read delay; 0 defaults to 1ms.
	DripDelay time.Duration
	// Sleeper realizes modeled delays; nil never sleeps (decisions still
	// count, keeping metrics deterministic at time scale 0).
	Sleeper *latency.Sleeper
	// Events, when non-nil, journals partition heals into the flight
	// recorder, labeled EventNode.
	Events *telemetry.Journal
	// EventNode labels this injector's journal events.
	EventNode string
}

// NetMetrics counts injected network faults. All fields are atomic.
type NetMetrics struct {
	Conns           atomic.Int64 // connections accepted through the wrapper
	Partitions      atomic.Int64 // partitions installed
	Heals           atomic.Int64 // partitions healed (auto or manual)
	BlackholedConns atomic.Int64 // accepts that landed inside a partition window
	BlockedReads    atomic.Int64 // reads that blocked against a partition
	SwallowedWrites atomic.Int64 // server writes swallowed by an outbound blackhole
	Resets          atomic.Int64 // scheduled mid-frame conn resets fired
	Delays          atomic.Int64 // delay spikes injected
	DrippedConns    atomic.Int64 // conns selected for slow-drip reads
}

// NetMetricsSnapshot is a point-in-time copy of NetMetrics.
type NetMetricsSnapshot struct {
	Conns, Partitions, Heals, BlackholedConns, BlockedReads,
	SwallowedWrites, Resets, Delays, DrippedConns int64
}

// Snapshot returns a copy of the counters.
func (m *NetMetrics) Snapshot() NetMetricsSnapshot {
	return NetMetricsSnapshot{
		Conns: m.Conns.Load(), Partitions: m.Partitions.Load(), Heals: m.Heals.Load(),
		BlackholedConns: m.BlackholedConns.Load(), BlockedReads: m.BlockedReads.Load(),
		SwallowedWrites: m.SwallowedWrites.Load(), Resets: m.Resets.Load(),
		Delays: m.Delays.Load(), DrippedConns: m.DrippedConns.Load(),
	}
}

// NetChaos is a fault-injecting net.Listener. Wrap a real listener and
// hand the wrapper to wire.Server.Serve; every accepted conn routes its
// reads and writes through the injector.
type NetChaos struct {
	ln  net.Listener
	cfg NetConfig

	mu sync.Mutex
	// mode/healed/remainingAccepts are the partition state: healed is
	// non-nil while partitioned and closed on heal, so blocked reads wake
	// without polling.
	mode             PartitionMode
	healed           chan struct{}
	remainingAccepts int
	// conns tracks live accepted conns so installing an inbound-affecting
	// partition can poison their read deadlines: a handler parked inside a
	// real Conn.Read would otherwise be woken directly by the next
	// request's bytes, bypassing the blackhole.
	conns map[*netConn]struct{}

	// writeFrames is the global write-frame clock scheduled resets fire
	// against (the network mirror of Store.Ops).
	writeFrames atomic.Int64
	resetMu     sync.Mutex
	resets      []int64

	metrics NetMetrics
}

// WrapListener wraps ln behind the network fault injector. With a zero
// config (beyond Seed) and no partition installed it is a transparent
// pass-through.
func WrapListener(ln net.Listener, cfg NetConfig) *NetChaos {
	if cfg.Delay == 0 {
		cfg.Delay = 5 * time.Millisecond
	}
	if cfg.DripDelay == 0 {
		cfg.DripDelay = time.Millisecond
	}
	return &NetChaos{ln: ln, cfg: cfg, conns: make(map[*netConn]struct{})}
}

// NetFaultMetrics returns the injection counters.
func (n *NetChaos) NetFaultMetrics() *NetMetrics { return &n.metrics }

// SetPartition installs a blackhole partition that auto-heals after
// healAfterAccepts connections have been accepted: under the wire
// client's redial-per-attempt behavior that is a deterministic count of
// shed attempts, so sequential campaigns reproduce bit for bit. The
// heal-triggering accept itself is served clean. healAfterAccepts <= 0
// means the partition persists until SetPartition(PartitionNone, 0).
// Conns accepted BEFORE the partition (the client's idle pool) are
// affected too — partitions cut links, not handshakes.
func (n *NetChaos) SetPartition(mode PartitionMode, healAfterAccepts int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if mode == PartitionNone {
		n.healLocked()
		return
	}
	if n.mode == PartitionNone {
		n.metrics.Partitions.Add(1)
	}
	n.mode = mode
	n.remainingAccepts = healAfterAccepts
	if n.healed == nil {
		n.healed = make(chan struct{})
	}
	if mode == PartitionBoth || mode == PartitionInbound {
		// Kick handlers parked inside a real Conn.Read back out so they
		// re-check the partition: poison every live conn's read deadline.
		// netConn.Read recognizes the injected timeout and parks properly.
		for c := range n.conns {
			c.Conn.SetReadDeadline(time.Unix(1, 0))
		}
	}
}

// healLocked ends any active partition, waking blocked reads. Caller
// holds n.mu.
func (n *NetChaos) healLocked() {
	if n.mode == PartitionNone {
		return
	}
	n.mode = PartitionNone
	n.remainingAccepts = 0
	if n.healed != nil {
		close(n.healed)
		n.healed = nil
	}
	n.metrics.Heals.Add(1)
	n.cfg.Events.Record(telemetry.EventPartitionHeal, n.cfg.EventNode, "",
		"heals", strconv.FormatInt(n.metrics.Heals.Load(), 10))
}

// partition snapshots the current partition state.
func (n *NetChaos) partition() (PartitionMode, chan struct{}) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mode, n.healed
}

// ResetAfterWrites schedules one mid-frame connection reset at the first
// conn write after delta more write frames: half of that write is sent,
// then the conn is cut — the client sees a wire frame (or a group-flushed
// batch of them) truncated partway.
func (n *NetChaos) ResetAfterWrites(delta int64) {
	n.resetMu.Lock()
	n.resets = append(n.resets, n.writeFrames.Load()+delta)
	n.resetMu.Unlock()
}

// PendingResets returns how many scheduled resets have not fired yet.
func (n *NetChaos) PendingResets() int {
	n.resetMu.Lock()
	defer n.resetMu.Unlock()
	return len(n.resets)
}

// dueReset consumes at most one scheduled reset due at frame.
func (n *NetChaos) dueReset(frame int64) bool {
	n.resetMu.Lock()
	defer n.resetMu.Unlock()
	for i, at := range n.resets {
		if frame >= at {
			n.resets = append(n.resets[:i], n.resets[i+1:]...)
			return true
		}
	}
	return false
}

// roll derives a deterministic pseudo-probability from the seed and a
// decision coordinate — a pure function, immune to goroutine
// interleaving and map order.
func (n *NetChaos) roll(stream string, idx, frame int64) float64 {
	h := strhash.FNV32a(fmt.Sprintf("%d/%s/%d/%d", n.cfg.Seed, stream, idx, frame))
	return float64(h) / float64(1<<32)
}

// Accept implements net.Listener, counting accepts against any active
// partition's auto-heal budget.
func (n *NetChaos) Accept() (net.Conn, error) {
	c, err := n.ln.Accept()
	if err != nil {
		return nil, err
	}
	idx := n.metrics.Conns.Add(1) - 1
	cc := &netConn{Conn: c, h: n, idx: idx, closed: make(chan struct{})}
	n.mu.Lock()
	if n.mode != PartitionNone {
		if n.remainingAccepts > 0 {
			n.remainingAccepts--
			if n.remainingAccepts == 0 {
				n.healLocked() // this accept is the recovery: serve it clean
			}
		}
		if n.mode != PartitionNone {
			n.metrics.BlackholedConns.Add(1)
		}
	}
	n.conns[cc] = struct{}{}
	n.mu.Unlock()
	if n.cfg.SlowDripRate > 0 && n.roll("drip", idx, 0) < n.cfg.SlowDripRate {
		cc.drip = true
		n.metrics.DrippedConns.Add(1)
	}
	return cc, nil
}

// Close implements net.Listener. It does not heal an active partition:
// the server closes every accepted conn right after, which unblocks
// parked reads through their conn-level closed channels.
func (n *NetChaos) Close() error { return n.ln.Close() }

// Addr implements net.Listener.
func (n *NetChaos) Addr() net.Addr { return n.ln.Addr() }

// dripChunk is the read-slice size a dripped conn is limited to. Small
// enough that a payload-sized frame takes many delayed reads (the limp
// is observable), large enough that the per-read delay budget — each
// sub-millisecond sleep really costs about a scheduler quantum — keeps
// a frame's total drip time well inside an op deadline: a limping peer
// is slow, not partitioned.
const dripChunk = 256

// netConn is one accepted conn routed through the injector. The read
// path (frames counter included) is only touched by the server's one
// handler goroutine per conn, so it needs no synchronization.
type netConn struct {
	net.Conn
	h    *NetChaos
	idx  int64
	drip bool

	readFrames int64

	closeOnce sync.Once
	closed    chan struct{}
}

// awaitInbound parks while an inbound-affecting partition is active,
// waking on heal (and then clearing the read-deadline poison SetPartition
// left on the conn) or on close, which fails it with net.ErrClosed.
func (c *netConn) awaitInbound() error {
	parked := false
	for {
		mode, healed := c.h.partition()
		if mode != PartitionBoth && mode != PartitionInbound {
			if parked {
				c.Conn.SetReadDeadline(time.Time{})
			}
			return nil
		}
		parked = true
		c.h.metrics.BlockedReads.Add(1)
		select {
		case <-healed:
			// Healed: re-check (a new partition may already be up).
		case <-c.closed:
			return net.ErrClosed
		}
	}
}

// Read blocks while an inbound-affecting partition is active (waking on
// heal or close), then applies delay spikes and slow-drip before
// delegating. A read parked in the underlying conn when a partition is
// installed is kicked out by the poisoned deadline and re-enters here.
func (c *netConn) Read(b []byte) (int, error) {
	if err := c.awaitInbound(); err != nil {
		return 0, err
	}
	f := c.readFrames
	c.readFrames++
	if c.h.cfg.DelayRate > 0 && c.h.roll("delay", c.idx, f) < c.h.cfg.DelayRate {
		c.h.metrics.Delays.Add(1)
		c.h.cfg.Sleeper.Sleep(c.h.cfg.Delay)
	}
	if c.drip && len(b) > dripChunk {
		c.h.cfg.Sleeper.Sleep(c.h.cfg.DripDelay)
		b = b[:dripChunk]
	}
	n, err := c.Conn.Read(b)
	if err != nil && isNetTimeout(err) {
		// The wire server never sets read deadlines, so a server-side read
		// timeout can only be partition poison: re-enter to park (or, if
		// the heal raced the poison, clear the deadline and read clean —
		// the retried read carries no deadline, so this terminates).
		if mode, _ := c.h.partition(); mode != PartitionBoth && mode != PartitionInbound {
			c.Conn.SetReadDeadline(time.Time{})
		}
		return c.Read(b)
	}
	if n > 0 {
		// The poison kick can lose a race inside the runtime poller: the
		// parked read is woken for the deadline, the peer's next bytes
		// land before it runs, and it returns them instead of the timeout.
		// Those bytes crossed during the partition; hold them until it
		// heals, as a read that parked in time would have, so whether the
		// server sees a request inside the window never depends on
		// scheduling.
		if herr := c.awaitInbound(); herr != nil {
			return 0, herr
		}
	}
	return n, err
}

// isNetTimeout reports whether err is a net timeout (deadline poison).
func isNetTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Write swallows frames under an outbound-affecting partition (reporting
// success — the gray failure) and fires scheduled mid-frame resets.
func (c *netConn) Write(b []byte) (int, error) {
	mode, _ := c.h.partition()
	if mode == PartitionBoth || mode == PartitionOutbound {
		c.h.metrics.SwallowedWrites.Add(1)
		return len(b), nil
	}
	f := c.h.writeFrames.Add(1)
	if c.h.dueReset(f) {
		written := 0
		if half := len(b) / 2; half > 0 {
			written, _ = c.Conn.Write(b[:half])
		}
		c.h.metrics.Resets.Add(1)
		c.Close()
		return written, net.ErrClosed
	}
	return c.Conn.Write(b)
}

// Close implements net.Conn, waking any read parked against a partition.
func (c *netConn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.h.mu.Lock()
		delete(c.h.conns, c)
		c.h.mu.Unlock()
	})
	return c.Conn.Close()
}
