// Package cluster assembles full AFT deployments: N replica nodes over one
// shared storage backend, the multicast fabric, per-node local GC loops,
// the fault manager / global GC, a round-robin load balancer, and standby
// nodes for failure recovery.
//
// Substitution note (DESIGN.md §2): the paper deploys each node and the
// fault manager in Docker containers under Kubernetes (§4.3) and relies on
// Kubernetes for membership. This package plays both roles in-process: it
// owns membership, detects injected failures after a configurable delay
// (the paper observes ~5 s), and promotes a pre-allocated standby after a
// configurable warm-up delay modeling container download plus metadata
// cache warming (~45-50 s in Figure 10).
package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"aft/internal/core"
	"aft/internal/faultmgr"
	"aft/internal/idgen"
	"aft/internal/latency"
	"aft/internal/lb"
	"aft/internal/multicast"
	"aft/internal/storage"
	"aft/internal/telemetry"
)

// Config parameterizes a deployment.
type Config struct {
	// Nodes is the initial replica count. Required >= 1.
	Nodes int
	// Standbys is the number of pre-allocated replacement nodes ("we
	// pre-allocate standby nodes to avoid having to wait for new EC2 VMs
	// to start", §6.7).
	Standbys int
	// Store is the shared storage backend. Required.
	Store storage.Store
	// Node is the per-node configuration template; NodeID and Store are
	// overridden per replica.
	Node core.Config
	// MulticastPeriod is the commit broadcast period (§4; paper: 1 s).
	// Zero defaults to 1 s.
	MulticastPeriod time.Duration
	// PruneMulticast enables the §4.1 supersedence pruning (on in the
	// paper; exposed for the ablation bench).
	PruneMulticast bool
	// LocalGCInterval runs each node's metadata sweep (§5.1); zero
	// disables local GC.
	LocalGCInterval time.Duration
	// GlobalGCInterval runs the fault manager's storage scan and global
	// collection (§4.2, §5.2); zero disables them.
	GlobalGCInterval time.Duration
	// DetectDelay is the failure-detection latency (~5 s in §6.7).
	DetectDelay time.Duration
	// JoinDelay models replacement-node warm-up: container download plus
	// metadata cache warming (~45-50 s in Figure 10).
	JoinDelay time.Duration
	// Sleeper scales the Detect/Join delays (experiments run faster than
	// real time); nil means no sleeping at all.
	Sleeper *latency.Sleeper
	// Clock is shared by all nodes; nil selects the wall clock.
	Clock idgen.Clock
	// Events, when non-nil, is the cluster-wide flight-recorder journal:
	// lifecycle transitions (node kills, standby promotions) are recorded
	// here, and it is threaded into every node's config so per-node
	// anomalies (sheds, budget spills) land in the same timeline.
	Events *telemetry.Journal
	// TraceCollector, when non-nil, turns on cross-node trace stitching:
	// every node gets its own tracer (unless the Node template already
	// carries one) whose retained traces and foreign spans forward here,
	// and the fault manager attributes recovery work to sampled traces
	// the same way. Serve the collector's Handler as the cluster /traces.
	TraceCollector *telemetry.TraceCollector
}

type member struct {
	node   *core.Node
	mc     *multicast.Multicaster
	tracer *telemetry.Tracer // nil unless the cluster built one
	stop   chan struct{}     // stops the local GC loop
}

// Cluster is a running deployment.
type Cluster struct {
	cfg      Config
	bus      *multicast.Bus
	fm       *faultmgr.Manager
	balancer *lb.Balancer

	mu       sync.Mutex
	members  map[string]*member
	standbys int
	nextID   int
	stopped  bool
	bg       sync.WaitGroup
	stopGC   chan struct{}
}

// New validates cfg and assembles a stopped cluster; call Start.
func New(cfg Config) (*Cluster, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("cluster: Config.Store is required")
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if cfg.MulticastPeriod <= 0 {
		cfg.MulticastPeriod = time.Second
	}
	c := &Cluster{
		cfg:      cfg,
		bus:      multicast.NewBus(),
		balancer: lb.New(),
		members:  make(map[string]*member),
		standbys: cfg.Standbys,
		stopGC:   make(chan struct{}),
	}
	c.fm = faultmgr.New(cfg.Store, membershipFunc(c.fmNodes))
	c.bus.Tap(c.fm.Ingest)
	if cfg.TraceCollector != nil {
		// The fault manager is its own "node" on the stitched view: its
		// ingest/recover/announce spans carry the faultmgr attribution.
		fmTracer := telemetry.NewTracer(telemetry.TracerOptions{
			Node: "faultmgr", SampleEvery: -1,
		})
		fmTracer.SetSink(cfg.TraceCollector)
		c.fm.SetTracer(fmTracer)
	}
	return c, nil
}

type membershipFunc func() []faultmgr.Node

func (f membershipFunc) Nodes() []faultmgr.Node { return f() }

func (c *Cluster) fmNodes() []faultmgr.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]faultmgr.Node, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, m.node)
	}
	return out
}

// Start boots the initial replicas and background processes.
func (c *Cluster) Start(ctx context.Context) error {
	for i := 0; i < c.cfg.Nodes; i++ {
		if _, err := c.addNode(ctx, false); err != nil {
			return err
		}
	}
	if c.cfg.GlobalGCInterval > 0 {
		c.bg.Add(1)
		go c.globalGCLoop()
	}
	return nil
}

// addNode creates, bootstraps, and registers one replica. When warmup is
// true the join is delayed by JoinDelay first (standby promotion path).
func (c *Cluster) addNode(ctx context.Context, warmup bool) (*core.Node, error) {
	c.mu.Lock()
	c.nextID++
	id := fmt.Sprintf("aft-%d", c.nextID)
	c.mu.Unlock()

	if warmup {
		// Container download + metadata cache warm-up (§6.7).
		c.cfg.Sleeper.Sleep(c.cfg.JoinDelay)
	}
	nodeCfg := c.cfg.Node
	nodeCfg.NodeID = id
	nodeCfg.Store = c.cfg.Store
	if nodeCfg.Clock == nil {
		nodeCfg.Clock = c.cfg.Clock
	}
	if nodeCfg.Events == nil {
		nodeCfg.Events = c.cfg.Events
	}
	var tracer *telemetry.Tracer
	if c.cfg.TraceCollector != nil && nodeCfg.Tracer == nil {
		tracer = telemetry.NewTracer(telemetry.TracerOptions{Node: id})
		tracer.SetSink(c.cfg.TraceCollector)
		nodeCfg.Tracer = tracer
	}
	node, err := core.NewNode(nodeCfg)
	if err != nil {
		return nil, err
	}
	// Register on the bus BEFORE bootstrapping: a commit that lands after
	// the bootstrap's storage scan must still reach this node, and only a
	// multicast round that already sees it as a peer delivers it (the
	// fault manager taps that round, so no later scan re-announces the
	// record). Rounds that snapshotted their peers earlier carry records
	// that were durable before this point, which the bootstrap reads.
	c.bus.Register(node)
	bootStart := time.Now()
	if err := node.Bootstrap(ctx); err != nil {
		c.bus.Unregister(id)
		return nil, fmt.Errorf("cluster: bootstrapping %s: %w", id, err)
	}
	// The join itself is a system trace on the new node's tracer, so a
	// promotion's warm-up cost shows up on the stitched view next to the
	// transactions it delayed.
	if tracer != nil {
		jt := tracer.BeginSystem("cluster.join")
		jt.AddSpan("node.bootstrap", bootStart, time.Since(bootStart),
			map[string]string{"warmup": fmt.Sprintf("%v", warmup)})
		jt.Finish("joined")
	}
	m := &member{
		node:   node,
		mc:     multicast.NewMulticaster(c.bus, node, c.cfg.MulticastPeriod, c.cfg.PruneMulticast),
		tracer: tracer,
		stop:   make(chan struct{}),
	}
	c.mu.Lock()
	if c.stopped {
		// The cluster shut down while this node (e.g. a standby being
		// promoted) was warming up; do not register or start loops.
		c.mu.Unlock()
		c.bus.Unregister(id)
		return nil, fmt.Errorf("cluster: stopped")
	}
	m.mc.Start()
	if c.cfg.LocalGCInterval > 0 {
		c.bg.Add(1)
		go c.localGCLoop(m)
	}
	// The balancer entry must be visible no later than membership: a
	// caller polling Nodes() for a promotion to complete (the chaos
	// scheduler does) must be able to route to the new node the instant
	// it appears, or the routing schedule depends on this goroutine
	// winning a race.
	c.balancer.Add(node)
	c.members[id] = m
	c.mu.Unlock()
	return node, nil
}

func (c *Cluster) localGCLoop(m *member) {
	defer c.bg.Done()
	ticker := time.NewTicker(c.cfg.LocalGCInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.node.SweepLocalMetadata(0)
			if c.cfg.Node.MetadataBudgetBytes > 0 {
				// Best-effort: a storage error mid-enforcement just leaves
				// memory relief to the next tick.
				_, _ = m.node.EnforceBudget(context.Background())
			}
		}
	}
}

func (c *Cluster) globalGCLoop() {
	defer c.bg.Done()
	// GC storage work runs under a context cancelled at Stop, so a large
	// in-flight collection round never delays shutdown.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-c.stopGC
		cancel()
	}()
	ticker := time.NewTicker(c.cfg.GlobalGCInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopGC:
			return
		case <-ticker.C:
			_ = c.fm.ScanStorage(ctx)
			// Bound one round so the loop stays responsive; the next
			// tick continues where this one left off (oldest first).
			_, _ = c.fm.CollectOnce(ctx, 5000)
			// Reclaim spill data orphaned by crashed transactions; the
			// grace period is one minute of commit-timestamp time.
			if cutoff := time.Now().Add(-time.Minute).UnixNano(); cutoff > 0 {
				_, _ = c.fm.SweepSpills(ctx, cutoff)
			}
		}
	}
}

// Kill simulates a crash of the named node: it vanishes from the balancer
// and multicast fabric without flushing its pending broadcasts (the §4.2
// liveness hazard), and callers parked for one of its admission slots fail
// retriably (core.Node.Stop). If a standby is available, a replacement is
// promoted in the background after DetectDelay + JoinDelay (§6.7).
func (c *Cluster) Kill(nodeID string) error {
	c.mu.Lock()
	m, ok := c.members[nodeID]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown node %q", nodeID)
	}
	delete(c.members, nodeID)
	close(m.stop)
	haveStandby := c.standbys > 0
	if haveStandby {
		c.standbys--
	}
	c.mu.Unlock()

	c.cfg.Events.Record(telemetry.EventNodeKill, nodeID, "",
		"standby_available", fmt.Sprintf("%v", haveStandby))
	c.balancer.Remove(nodeID)
	m.node.Stop()
	m.mc.Kill()

	if haveStandby {
		c.bg.Add(1)
		go func() {
			defer c.bg.Done()
			// Failure detection (~5 s, §6.7), then standby warm-up.
			c.cfg.Sleeper.Sleep(c.cfg.DetectDelay)
			// A promotion can fail transiently — its bootstrap reads the
			// Transaction Commit Set through the same storage layer whose
			// flakiness caused failovers to matter in the first place.
			// Retry with the join warm-up paid only once; exhausting the
			// budget (or cluster shutdown) leaves the cluster one node
			// short.
			for attempt := 0; attempt < promotionAttempts; attempt++ {
				n, err := c.addNode(context.Background(), attempt == 0)
				if err == nil {
					c.cfg.Events.Record(telemetry.EventPromotion, n.ID(), "",
						"replaces", nodeID,
						"attempt", fmt.Sprintf("%d", attempt+1))
					return
				}
				if c.isStopped() {
					return
				}
				c.cfg.Sleeper.Sleep(c.cfg.DetectDelay)
			}
		}()
	}
	return nil
}

// promotionAttempts bounds standby-promotion retries after a node kill.
// Generous on purpose: a promotion bootstraps through the same storage
// whose failure modes are being recovered from, so several attempts can
// plausibly hit transient faults before one lands.
const promotionAttempts = 10

// isStopped reports whether Stop has run.
func (c *Cluster) isStopped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}

// Client returns the deployment's load-balanced client surface.
func (c *Cluster) Client() *lb.Balancer { return c.balancer }

// Bus returns the multicast fabric (metrics, taps).
func (c *Cluster) Bus() *multicast.Bus { return c.bus }

// FaultManager returns the deployment's fault manager / global GC.
func (c *Cluster) FaultManager() *faultmgr.Manager { return c.fm }

// Nodes returns the live replicas.
func (c *Cluster) Nodes() []*core.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*core.Node, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, m.node)
	}
	return out
}

// Node returns a live replica by ID.
func (c *Cluster) Node(id string) (*core.Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[id]
	if !ok {
		return nil, false
	}
	return m.node, true
}

// FlushMulticast runs one broadcast round on every live node, in node-ID
// order (tests and deterministic harnesses). Order matters under §4.1
// pruning: a node flushing after it merged another node's round prunes
// against the newer state, so an unordered walk would make the delivered
// record sets — and everything downstream of them, like local-GC votes —
// depend on map iteration order.
//
// It is a visibility barrier: when it returns, every node reads each key at
// a version no older than any commit acknowledged before the call. A node
// may prune an acknowledged record because a newer version arrived from a
// peer's periodic round that is still delivering to the others, so after
// the flushes every node's in-progress round is waited out.
func (c *Cluster) FlushMulticast() {
	c.mu.Lock()
	ids := make([]string, 0, len(c.members))
	byID := make(map[string]*member, len(c.members))
	for id, m := range c.members {
		ids = append(ids, id)
		byID[id] = m
	}
	c.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		byID[id].mc.Flush()
	}
	for _, id := range ids {
		byID[id].mc.Settle()
	}
}

// Stop shuts down every node and background loop.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	members := make([]*member, 0, len(c.members))
	ids := make([]string, 0, len(c.members))
	for id, m := range c.members {
		members = append(members, m)
		ids = append(ids, id)
	}
	c.members = make(map[string]*member)
	close(c.stopGC)
	c.mu.Unlock()

	for i, m := range members {
		c.balancer.Remove(ids[i])
		close(m.stop)
		m.node.Stop()
		m.mc.Stop()
	}
	c.bg.Wait()
}

// TotalCommitted sums committed-transaction counts across live nodes.
func (c *Cluster) TotalCommitted() int64 {
	var total int64
	for _, n := range c.Nodes() {
		total += n.Metrics().Snapshot().Committed
	}
	return total
}
