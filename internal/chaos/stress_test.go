package chaos

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"aft/internal/checker"
	"aft/internal/cluster"
	"aft/internal/core"
	"aft/internal/storage/kvengine"
	"aft/internal/workload"
)

// TestClusterKillPromotionStress is the concurrent crash-recovery stress
// test (run under -race in CI): a cluster with live multicast and GC loops
// serves a concurrent read/write workload through fault injection while
// nodes are killed and standbys promoted mid-flight; afterwards the
// history checker — not hand-rolled assertions — proves the §3.2
// guarantees held and nothing committed was lost.
func TestClusterKillPromotionStress(t *testing.T) {
	ctx := context.Background()
	const (
		nodes    = 3
		kills    = 2
		keys     = 64
		workers  = 8
		minReqs  = 25 // per worker, and workers keep going until kills finish
		killGap  = 25 * time.Millisecond
		deadline = 30 * time.Second
	)

	st := Wrap(kvengine.NewDynamoDB(kvengine.Options{}), Config{
		Seed: 1, ErrorRate: 0.01, PartialRate: 0.05,
	})
	c, err := cluster.New(cluster.Config{
		Nodes:            nodes,
		Standbys:         kills,
		Store:            st,
		Node:             core.Config{EnableDataCache: true},
		MulticastPeriod:  2 * time.Millisecond,
		PruneMulticast:   true,
		LocalGCInterval:  3 * time.Millisecond,
		GlobalGCInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	check := checker.New()
	runner := &Runner{Client: c.Client(), Payload: workload.Payload(1, 128), Check: check}

	// Seed every key clean before the chaos starts.
	for start := 0; start < keys; start += 16 {
		var ops []workload.Op
		for i := start; i < start+16 && i < keys; i++ {
			ops = append(ops, workload.Op{Kind: workload.OpWrite, Key: workload.KeyName(i)})
		}
		if err := runner.Do(ctx, workload.Request{Funcs: [][]workload.Op{ops}}); err != nil {
			t.Fatalf("seeding: %v", err)
		}
	}
	st.SetEnabled(true)

	// The killer: crash a node, wait out the standby promotion, recover
	// via the fault manager's scan, repeat — all while workers hammer the
	// cluster (in-flight transactions on the victim fail over and redo).
	killsDone := make(chan struct{})
	killerErr := make(chan error, 1)
	go func() {
		defer close(killsDone)
		for k := 0; k < kills; k++ {
			time.Sleep(killGap)
			live := c.Nodes()
			ids := make([]string, len(live))
			for i, n := range live {
				ids[i] = n.ID()
			}
			sort.Strings(ids)
			victim := ids[k%len(ids)]
			if err := c.Kill(victim); err != nil {
				killerErr <- err
				return
			}
			limit := time.Now().Add(deadline)
			for len(c.Nodes()) < nodes {
				if time.Now().After(limit) {
					killerErr <- fmt.Errorf("standby promotion after killing %s timed out", victim)
					return
				}
				time.Sleep(time.Millisecond)
			}
			if err := Retry(ctx, 20, func() error {
				return c.FaultManager().ScanStorage(ctx)
			}); err != nil {
				killerErr <- fmt.Errorf("post-kill scan: %w", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	workerErr := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.NewGenerator(int64(100+w), workload.NewZipf(int64(200+w), keys, 1.0), 2, 2, 2)
			for i := 0; ; i++ {
				if i >= minReqs {
					select {
					case <-killsDone:
						return
					default:
					}
				}
				if err := runner.Do(ctx, gen.Next()); err != nil {
					workerErr <- fmt.Errorf("worker %d request %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(workerErr)
	if err := <-workerErr; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-killerErr:
		t.Fatal(err)
	default:
	}

	// Quiesce and audit: faults off, full exchange and recovery, ground
	// truth from storage, then the checker's verdict over the complete
	// concurrent history.
	st.SetEnabled(false)
	c.FlushMulticast()
	if err := c.FaultManager().ScanStorage(ctx); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		n.SweepLocalMetadata(0)
	}
	if _, err := c.FaultManager().CollectOnce(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := check.ResolveStorage(ctx, st); err != nil {
		t.Fatal(err)
	}
	keyNames := make([]string, keys)
	for i := range keyNames {
		keyNames[i] = workload.KeyName(i)
	}
	final, err := runner.FinalState(ctx, keyNames)
	if err != nil {
		t.Fatal(err)
	}
	v := check.Verdict(final)
	if !v.Clean() {
		t.Fatalf("verdict: %s\nviolations:\n%v", v, v.Violations)
	}
	rm := runner.Metrics().Snapshot()
	if rm.Commits < int64(workers*minReqs) {
		t.Fatalf("committed %d requests, want >= %d", rm.Commits, workers*minReqs)
	}
	t.Logf("verdict %s; runner %+v; faults %+v", v, rm, st.FaultMetrics().Snapshot())
}

// TestCrashPointBetweenDataAndRecordWrite schedules a node kill exactly
// inside a commit's write-ordering window — after the data-version
// BatchPut begins, before the commit record lands — and verifies the §3.3
// guarantee: the half-written transaction either becomes fully visible
// (its record survived) or leaves no trace, never a partial state, and the
// client-side redo converges.
func TestCrashPointBetweenDataAndRecordWrite(t *testing.T) {
	ctx := context.Background()
	st := Wrap(kvengine.NewDynamoDB(kvengine.Options{}), Config{Seed: 2})
	c, err := cluster.New(cluster.Config{
		Nodes:           2,
		Standbys:        1,
		Store:           st,
		Node:            core.Config{EnableDataCache: true},
		MulticastPeriod: 2 * time.Millisecond,
		PruneMulticast:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	check := checker.New()
	runner := &Runner{Client: c.Client(), Payload: workload.Payload(2, 64), Check: check}
	seedReq := workload.Request{Funcs: [][]workload.Op{{
		{Kind: workload.OpWrite, Key: "x"}, {Kind: workload.OpWrite, Key: "y"},
	}}}
	if err := runner.Do(ctx, seedReq); err != nil {
		t.Fatal(err)
	}

	// Kill whichever node serves the next commit, one storage operation
	// after the commit's first write begins: the data phase has started,
	// the record is not yet durable. (Hooks fire exactly once.)
	st.CrashAfter(1, func() {
		for _, n := range c.Nodes() {
			if n.ActiveTransactions() > 0 {
				_ = c.Kill(n.ID())
				return
			}
		}
	})
	if err := runner.Do(ctx, seedReq); err != nil {
		t.Fatal(err)
	}

	// Converge and audit.
	limit := time.Now().Add(10 * time.Second)
	for len(c.Nodes()) < 2 && time.Now().Before(limit) {
		time.Sleep(time.Millisecond)
	}
	c.FlushMulticast()
	if err := c.FaultManager().ScanStorage(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := check.ResolveStorage(ctx, st); err != nil {
		t.Fatal(err)
	}
	final, err := runner.FinalState(ctx, []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 2 {
		t.Fatalf("final state has %d keys, want 2", len(final))
	}
	if final["x"].UUID != final["y"].UUID {
		t.Fatalf("fractured final state: x from %s, y from %s", final["x"].UUID, final["y"].UUID)
	}
	if v := check.Verdict(final); !v.Clean() {
		t.Fatalf("verdict: %s\n%v", v, v.Violations)
	}
}
