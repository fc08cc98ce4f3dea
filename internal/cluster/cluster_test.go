package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aft/internal/core"
	"aft/internal/latency"
	"aft/internal/lb"
	"aft/internal/records"
	"aft/internal/retry"
	"aft/internal/storage/kvengine"
)

func newTestCluster(t *testing.T, mutate ...func(*Config)) (*Cluster, *kvengine.DynamoDB) {
	t.Helper()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	cfg := Config{
		Nodes:           3,
		Store:           store,
		MulticastPeriod: 2 * time.Millisecond,
		PruneMulticast:  true,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c, store
}

func runTxn(t *testing.T, client *lb.Balancer, kvs map[string]string) {
	t.Helper()
	ctx := context.Background()
	txid, err := client.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range kvs {
		if err := client.Put(ctx, txid, k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 1}); err == nil {
		t.Fatal("missing store accepted")
	}
	if _, err := New(Config{Store: kvengine.NewDynamoDB(kvengine.Options{})}); err == nil {
		t.Fatal("zero nodes accepted")
	}
}

func TestCommitsPropagateAcrossNodes(t *testing.T) {
	c, _ := newTestCluster(t)
	client := c.Client()
	runTxn(t, client, map[string]string{"k": "v"})
	c.FlushMulticast()

	// Every node can serve the key, whichever committed it.
	ctx := context.Background()
	for _, n := range c.Nodes() {
		txid, err := n.StartTransaction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		v, err := n.Get(ctx, txid, "k")
		if err != nil || string(v) != "v" {
			t.Fatalf("node %s read = %q, %v", n.ID(), v, err)
		}
		n.AbortTransaction(ctx, txid)
	}
}

func TestPeriodicMulticastPropagates(t *testing.T) {
	c, _ := newTestCluster(t)
	runTxn(t, c.Client(), map[string]string{"k": "v"})
	deadline := time.After(2 * time.Second)
	for {
		all := true
		for _, n := range c.Nodes() {
			if n.MetadataSize() == 0 {
				all = false
			}
		}
		if all {
			return
		}
		select {
		case <-deadline:
			t.Fatal("multicast never propagated")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func TestKillRemovesNodeAndClusterKeepsServing(t *testing.T) {
	c, _ := newTestCluster(t)
	victim := c.Nodes()[0].ID()
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(victim); err == nil {
		t.Fatal("double kill succeeded")
	}
	if len(c.Nodes()) != 2 {
		t.Fatalf("nodes after kill = %d", len(c.Nodes()))
	}
	for i := 0; i < 6; i++ {
		runTxn(t, c.Client(), map[string]string{fmt.Sprintf("k%d", i): "v"})
	}
}

func TestStandbyPromotionRestoresCapacity(t *testing.T) {
	ctx := context.Background()
	newCluster := func(t *testing.T, period time.Duration) *Cluster {
		c, _ := newTestCluster(t, func(cfg *Config) {
			cfg.Standbys = 1
			cfg.DetectDelay = time.Millisecond
			cfg.JoinDelay = time.Millisecond
			cfg.Sleeper = latency.RealTime
			cfg.MulticastPeriod = period
		})
		return c
	}
	// promote kills victim and returns the standby promoted in its place.
	promote := func(t *testing.T, c *Cluster, victim string) *core.Node {
		original := map[string]bool{}
		for _, n := range c.Nodes() {
			original[n.ID()] = true
		}
		if err := c.Kill(victim); err != nil {
			t.Fatal(err)
		}
		deadline := time.After(2 * time.Second)
		for len(c.Nodes()) < 3 {
			select {
			case <-deadline:
				t.Fatal("standby never joined")
			case <-time.After(2 * time.Millisecond):
			}
		}
		for _, n := range c.Nodes() {
			if !original[n.ID()] {
				return n
			}
		}
		t.Fatal("no new node among the members")
		return nil
	}
	requireRead := func(t *testing.T, n *core.Node, key, want string) {
		txid, _ := n.StartTransaction(ctx)
		v, err := n.Get(ctx, txid, key)
		if err != nil || string(v) != want {
			t.Fatalf("replacement read of %q = %q, %v; want %q", key, v, err, want)
		}
	}

	t.Run("announced", func(t *testing.T) {
		c := newCluster(t, 2*time.Millisecond)
		// Write some data so the standby has a commit set to warm from.
		runTxn(t, c.Client(), map[string]string{"warm": "data"})
		c.FlushMulticast()
		// The replacement joined through addNode and bootstrapped from
		// storage: it can serve "warm".
		requireRead(t, promote(t, c, c.Nodes()[0].ID()), "warm", "data")
	})

	t.Run("unannounced", func(t *testing.T) {
		// The victim commits and dies before any multicast round, so only
		// storage knows the commit. The replacement's bootstrap reads the
		// whole Commit Set, so it serves the key before any fault-manager
		// scan has recovered the record.
		c := newCluster(t, time.Hour)
		victim := c.Nodes()[0]
		txid, err := victim.StartTransaction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := victim.Put(ctx, txid, "orphan", []byte("committed")); err != nil {
			t.Fatal(err)
		}
		if _, err := victim.CommitTransaction(ctx, txid); err != nil {
			t.Fatal(err)
		}
		requireRead(t, promote(t, c, victim.ID()), "orphan", "committed")
		// A scan after the kill would have recovered the victim's record.
		if rec := c.FaultManager().Metrics().Snapshot().Recovered; rec != 0 {
			t.Fatalf("fault manager recovered %d records: a storage scan ran", rec)
		}
	})
}

func TestNoStandbyNoReplacement(t *testing.T) {
	c, _ := newTestCluster(t, func(cfg *Config) {
		cfg.DetectDelay = 0
		cfg.JoinDelay = 0
	})
	c.Kill(c.Nodes()[0].ID())
	time.Sleep(20 * time.Millisecond)
	if len(c.Nodes()) != 2 {
		t.Fatalf("nodes = %d, want 2 (no standby configured)", len(c.Nodes()))
	}
}

// TestFaultManagerRecoversKilledNodesCommits is the §4.2 liveness story end
// to end: a node commits, dies before broadcasting, and the fault manager's
// storage scan makes the commit visible to the other replicas.
func TestFaultManagerRecoversKilledNodesCommits(t *testing.T) {
	c, _ := newTestCluster(t, func(cfg *Config) {
		cfg.MulticastPeriod = time.Hour // never broadcast on its own
	})
	ctx := context.Background()
	victim := c.Nodes()[0]
	txid, err := victim.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	victim.Put(ctx, txid, "orphan", []byte("committed"))
	if _, err := victim.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(victim.ID()); err != nil {
		t.Fatal(err)
	}
	// Survivors cannot see it yet.
	other := c.Nodes()[0]
	tx2, _ := other.StartTransaction(ctx)
	if _, err := other.Get(ctx, tx2, "orphan"); !errors.Is(err, core.ErrKeyNotFound) {
		t.Fatalf("pre-scan read = %v", err)
	}
	other.AbortTransaction(ctx, tx2)
	// Fault manager scan recovers it.
	if err := c.FaultManager().ScanStorage(ctx); err != nil {
		t.Fatal(err)
	}
	tx3, _ := other.StartTransaction(ctx)
	v, err := other.Get(ctx, tx3, "orphan")
	if err != nil || string(v) != "committed" {
		t.Fatalf("post-scan read = %q, %v", v, err)
	}
}

func TestGCLoopsDeleteSupersededData(t *testing.T) {
	c, store := newTestCluster(t, func(cfg *Config) {
		cfg.Nodes = 2
		cfg.LocalGCInterval = 2 * time.Millisecond
		cfg.GlobalGCInterval = 4 * time.Millisecond
	})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		runTxn(t, c.Client(), map[string]string{"hot": fmt.Sprintf("v%d", i)})
		// Flush after every write so each record reaches the peer before
		// the next write supersedes it. Otherwise §4.1 sender pruning can
		// (timing-dependently, e.g. under -race) withhold a record from
		// the peer entirely, and the §5.2 unanimity check then blocks the
		// global GC forever — no record is ever deletable and the wait
		// below would hit its deadline.
		c.FlushMulticast()
	}
	deadline := time.After(3 * time.Second)
	for {
		if c.FaultManager().Metrics().Snapshot().TxnsDeleted > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("global GC never deleted anything")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// The latest version must always survive and be readable.
	n := c.Nodes()[0]
	txid, _ := n.StartTransaction(ctx)
	v, err := n.Get(ctx, txid, "hot")
	if err != nil || string(v) != "v19" {
		t.Fatalf("read after GC = %q, %v", v, err)
	}
	// Storage version count for "hot" is strictly below 20.
	versions, _ := store.List(ctx, records.DataPrefix+"hot/")
	if len(versions) >= 20 {
		t.Fatalf("GC left %d versions", len(versions))
	}
}

func TestNodeLookupAndTotals(t *testing.T) {
	c, _ := newTestCluster(t)
	id := c.Nodes()[0].ID()
	if _, ok := c.Node(id); !ok {
		t.Fatal("Node lookup failed")
	}
	if _, ok := c.Node("ghost"); ok {
		t.Fatal("ghost node found")
	}
	runTxn(t, c.Client(), map[string]string{"k": "v"})
	if c.TotalCommitted() != 1 {
		t.Fatalf("total committed = %d", c.TotalCommitted())
	}
	if len(c.Bus().Peers()) != 3 {
		t.Fatalf("bus peers = %d", len(c.Bus().Peers()))
	}
}

func TestStopIdempotent(t *testing.T) {
	c, _ := newTestCluster(t)
	c.Stop()
	c.Stop()
}

// parkingPeer is a bus peer whose deliveries block until release closes,
// standing in for a periodic multicast round caught between drain and
// deliver.
type parkingPeer struct {
	entered chan struct{} // one token per parked delivery
	release chan struct{}
}

func (p *parkingPeer) ID() string                                     { return "parker" }
func (p *parkingPeer) Drain() []*records.CommitRecord                 { return nil }
func (p *parkingPeer) DrainPruned() ([]*records.CommitRecord, []bool) { return nil, nil }
func (p *parkingPeer) SkipPruned([]*records.CommitRecord)             {}
func (p *parkingPeer) MergeRemoteCommits([]*records.CommitRecord) {
	p.entered <- struct{}{}
	<-p.release
}

// TestFlushMulticastWaitsOutInFlightRound: the ticker's round has drained
// the node's records and is parked mid-delivery. FlushMulticast finds the
// queue empty, but it must not return until that round has delivered — a
// read right behind it would otherwise be one round stale.
func TestFlushMulticastWaitsOutInFlightRound(t *testing.T) {
	c, _ := newTestCluster(t, func(cfg *Config) { cfg.Nodes = 1 })
	parker := &parkingPeer{entered: make(chan struct{}, 1), release: make(chan struct{})}
	c.Bus().Register(parker)
	defer c.Bus().Unregister(parker.ID())
	var release sync.Once // also on failure, or Stop hangs behind the parked round
	defer release.Do(func() { close(parker.release) })

	runTxn(t, c.Client(), map[string]string{"k": "v"})
	select {
	case <-parker.entered: // the periodic round is now parked mid-delivery
	case <-time.After(2 * time.Second):
		t.Fatal("periodic round never delivered")
	}

	flushed := make(chan struct{})
	go func() {
		c.FlushMulticast()
		close(flushed)
	}()
	select {
	case <-flushed:
		t.Fatal("FlushMulticast returned while a drained round was still delivering")
	case <-time.After(100 * time.Millisecond):
	}
	release.Do(func() { close(parker.release) })
	select {
	case <-flushed:
	case <-time.After(2 * time.Second):
		t.Fatal("FlushMulticast never returned after the round landed")
	}
}

// TestKillFailsParkedAdmissionWaiters: a caller parked for an admission
// slot on a node that is then killed must fail retriably, not wait for a
// slot that the dead node's abandoned transaction will never release.
func TestKillFailsParkedAdmissionWaiters(t *testing.T) {
	c, _ := newTestCluster(t, func(cfg *Config) {
		cfg.Nodes = 1
		cfg.Node = core.Config{MaxConcurrent: 1, AdmissionQueue: 1}
	})
	victim := c.Nodes()[0]
	ctx := context.Background()
	// The only slot goes to a transaction its client abandons.
	if _, err := c.Client().StartTransaction(ctx); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		_, err := c.Client().StartTransaction(ctx)
		parked <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); victim.AdmissionWaiting() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second StartTransaction never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Kill(victim.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-parked:
		if !retry.Retriable(err) {
			t.Fatalf("parked StartTransaction after Kill = %v, want a retriable error", err)
		}
	case <-time.After(time.Second):
		t.Fatal("parked StartTransaction still waiting 1s after Kill")
	}
}
