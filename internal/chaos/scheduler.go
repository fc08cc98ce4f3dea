package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"aft/internal/cluster"
)

// PlanKills returns a deterministic ascending schedule of n distinct
// request indices in [lo, hi) at which a node kill should fire. It is the
// seed-derived "kill schedule" of a chaos run.
func PlanKills(seed int64, n, lo, hi int) []int {
	if hi <= lo || n <= 0 {
		return nil
	}
	if n > hi-lo {
		n = hi - lo
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6b696c6c)) // "kill"
	picked := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		at := lo + rng.Intn(hi-lo)
		if !picked[at] {
			picked[at] = true
			out = append(out, at)
		}
	}
	sort.Ints(out)
	return out
}

// promotionTimeout bounds one promotion wait (wall clock).
const promotionTimeout = 30 * time.Second

// Scheduler drives crash-recovery events against a running cluster on a
// deterministic schedule: at each planned point it kills one seeded-random
// live node (unflushed multicast state and all, the §4.2 liveness hazard),
// blocks until the pre-allocated standby has been promoted in its place,
// and then runs the fault manager's storage scan so commits the victim
// acknowledged but never broadcast become visible to the survivors.
//
// Blocking until promotion completes is what keeps a sequential driver's
// storage-operation sequence deterministic: the replacement node's
// bootstrap is the only storage traffic while the driver waits.
type Scheduler struct {
	c   *cluster.Cluster
	rng *rand.Rand
	// pending is the ascending request-index schedule.
	pending []int
	// target is the live-node count a promotion must restore.
	target int

	kills      int
	promotions int
}

// NewScheduler returns a Scheduler firing at the given ascending request
// indices. The victim choice at each firing is derived from seed.
func NewScheduler(c *cluster.Cluster, seed int64, killAt []int) *Scheduler {
	return &Scheduler{
		c:       c,
		rng:     rand.New(rand.NewSource(seed ^ 0x766963)), // "vic"
		pending: append([]int(nil), killAt...),
		target:  len(c.Nodes()),
	}
}

// Kills returns how many kills have fired.
func (s *Scheduler) Kills() int { return s.kills }

// Promotions returns how many standby promotions completed.
func (s *Scheduler) Promotions() int { return s.promotions }

// Pending returns how many scheduled kills have not fired yet.
func (s *Scheduler) Pending() int { return len(s.pending) }

// Tick fires every kill scheduled at or before the given completed-request
// count. It returns once the cluster is whole again and recovery has run.
func (s *Scheduler) Tick(ctx context.Context, completed int) error {
	for len(s.pending) > 0 && completed >= s.pending[0] {
		s.pending = s.pending[1:]
		if err := s.killOne(ctx); err != nil {
			return err
		}
	}
	return nil
}

// killOne crashes one node, waits out the standby promotion, and recovers.
func (s *Scheduler) killOne(ctx context.Context) error {
	nodes := s.c.Nodes()
	if len(nodes) == 0 {
		return fmt.Errorf("chaos: no nodes left to kill")
	}
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID()
	}
	sort.Strings(ids) // Nodes() iterates a map; sort before the seeded pick
	victim := ids[s.rng.Intn(len(ids))]
	if err := s.c.Kill(victim); err != nil {
		return err
	}
	s.kills++

	deadline := time.Now().Add(promotionTimeout)
	for len(s.c.Nodes()) < s.target {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: standby promotion after killing %s timed out (%d/%d nodes)",
				victim, len(s.c.Nodes()), s.target)
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.promotions++

	// Recovery: flush the survivors' broadcasts, then scan storage so the
	// victim's unbroadcast commits are re-announced (§4.2). The scan runs
	// against the chaos store and may itself draw injected faults; retry.
	s.c.FlushMulticast()
	return Retry(ctx, 10, func() error { return s.c.FaultManager().ScanStorage(ctx) })
}

// Retry runs fn up to attempts times, stopping on success, on a
// non-retriable error, or on context cancellation. It is the maintenance
// loop's armor against its own injected faults.
func Retry(ctx context.Context, attempts int, fn func() error) error {
	var err error
	for i := 0; i < attempts; i++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = fn(); err == nil || !Retriable(err) {
			return err
		}
	}
	return err
}
