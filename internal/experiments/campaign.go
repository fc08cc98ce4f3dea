package experiments

// campaign.go runs the cluster correctness campaigns (chaos, durability,
// recovery) from one description: a fleet seeded clean, a store behind the
// seeded fault injector, a workload driven one request at a time with
// faults scheduled between requests, and the history checker's verdict at
// the end. Each experiment is one campaign literal plus the mapping of
// its result into that experiment's cell type.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"aft/internal/chaos"
	"aft/internal/checker"
	"aft/internal/cluster"
	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/storage"
	"aft/internal/storage/walengine"
	"aft/internal/telemetry"
	"aft/internal/workload"
)

// campaign is one seed's correctness campaign.
type campaign struct {
	seed     int64
	requests int // workload requests after seeding

	// Fleet: nodes serve keys, each seeded by a transaction of seedPer
	// keys; maintain requests separate maintenance points.
	nodes, keys, seedPer, maintain int

	// Store: nil selects the DynamoDB profile (or the -store override),
	// otherwise a fresh WAL in a temp directory with these options.
	wal *walengine.Options

	// Faults besides the injector's rates: node kills (each promotes a
	// standby), planned Crash+Reopen cycles of the WAL, a bulk write of
	// bulkKeys keys after every request, and one crash armed at a spill.
	kills          int
	storageCrashes int
	bulkKeys       int
	midSpillCrash  bool

	// budget is each node's MetadataBudgetBytes; when set, every live
	// node enforces it every budgetEvery requests and on a shed redo.
	budget int64
	// journal records cluster events into the result.
	journal bool
}

// campaignResult is what a campaign measured.
type campaignResult struct {
	runs       chaos.RunnerMetricsSnapshot
	faults     chaos.MetricsSnapshot
	wal        walengine.MetricsSnapshot // zero without a WAL
	kills      int
	promotions int
	// storageCrashes counts fired planned crashes plus the armed one.
	storageCrashes int
	recovered      int64 // records the fault manager found only by scanning
	spilled, shed  int64
	verdict        checker.Verdict
	journal        []string // canonicalJournal, when the campaign keeps one
}

const (
	// budgetEvery is the budget-enforcement cadence in requests.
	budgetEvery = 5
	// bulkPayload is the least value size of a bulk write: too large for
	// its commit record, so a bulk write commits in §3.3's two phases and
	// partial batch writes have something to split. The paper mix's small
	// write sets commit in one Put. Up to 25 bulk keys fit one DynamoDB
	// BatchPut: a phase of several calls sends them concurrently, which
	// would make the order of the injector's draws, and so the campaign,
	// nondeterministic.
	bulkPayload = 1 << 10
	// chaosEpoch starts a campaign's virtual clock high enough that every
	// timestamp renders at a fixed decimal width, keeping commit-key
	// lexicographic order equal to timestamp order.
	chaosEpoch = int64(1) << 50
)

// campaignRequests returns the -chaos-requests override, or the default
// length (quick under -quick).
func (o Options) campaignRequests(full, quick int) int {
	switch {
	case o.ChaosRequests > 0:
		return o.ChaosRequests
	case o.Quick:
		return quick
	}
	return full
}

// campaignKills returns the -chaos-kills override, or def.
func (o Options) campaignKills(def int) int {
	if o.ChaosKills > 0 {
		return o.ChaosKills
	}
	return def
}

// chaosFaultRates returns the campaigns' fault rates, honoring overrides.
func (o Options) chaosFaultRates() (errRate, partialRate, spikeRate float64) {
	errRate, partialRate, spikeRate = 0.03, 0.12, 0.04
	if o.ChaosErrorRate > 0 {
		errRate = o.ChaosErrorRate
	}
	if o.ChaosPartialRate > 0 {
		partialRate = o.ChaosPartialRate
	}
	if o.ChaosSpikeRate > 0 {
		spikeRate = o.ChaosSpikeRate
	}
	return errRate, partialRate, spikeRate
}

// runCampaign runs one campaign.
//
// Determinism: one driver goroutine issues every request, kills fire
// synchronously between requests (the scheduler blocks until the standby
// promotion completes), and all background periods are disabled in favor
// of explicit maintenance points. Transaction IDs come from a shared
// virtual clock plus seeded UUID entropy, so every storage key reproduces
// bit for bit; without that, the injector's hash-of-key batch splits would
// follow wall-clock timestamps. So for a fixed seed the storage operation
// sequence, every fault decision and every retry reproduce, and with them
// the verdict.
func runCampaign(opts Options, cp campaign) (campaignResult, error) {
	ctx := context.Background()
	var res campaignResult

	var inner storage.Store
	var wal *walengine.Store
	if cp.wal != nil {
		dir, cleanup, err := walDir()
		if err != nil {
			return res, err
		}
		defer cleanup()
		if wal, err = walengine.Open(dir, *cp.wal); err != nil {
			return res, err
		}
		defer wal.Close()
		inner = wal
	} else {
		// The latency model (when scale > 0) draws from its own source,
		// seeded by the campaign.
		storeOpts := opts
		storeOpts.Seed = cp.seed
		inner = storeOpts.newStore(kindDynamo)
	}
	errRate, partialRate, spikeRate := opts.chaosFaultRates()
	st := chaos.Wrap(inner, chaos.Config{
		Seed:        cp.seed,
		ErrorRate:   errRate,
		PartialRate: partialRate,
		SpikeRate:   spikeRate,
		Spike:       20 * time.Millisecond,
		Sleeper:     opts.sleeper(),
	})

	var journal *telemetry.Journal
	if cp.journal {
		journal = telemetry.NewJournal(telemetry.JournalOptions{})
	}
	c, err := cluster.New(cluster.Config{
		Nodes:    cp.nodes,
		Standbys: cp.kills,
		Store:    st,
		Node: core.Config{
			EnableDataCache:     true,
			IDEntropySeed:       cp.seed,
			MetadataBudgetBytes: cp.budget,
		},
		Clock:           idgen.NewVirtualClock(chaosEpoch, 1),
		MulticastPeriod: time.Hour,
		PruneMulticast:  true,
		Events:          journal,
	})
	if err != nil {
		return res, err
	}
	if err := c.Start(ctx); err != nil {
		return res, err
	}
	defer c.Stop()

	check := checker.New()
	if journal != nil {
		check.SetJournal(journal)
	}
	runner := &chaos.Runner{
		Client:  c.Client(),
		Payload: workload.Payload(cp.seed, opts.Payload),
		Check:   check,
	}
	bulk := &chaos.Runner{
		Client:  c.Client(),
		Payload: workload.Payload(cp.seed, max(opts.Payload, bulkPayload)),
		Check:   check,
	}

	// Seed every key clean, so reads always find a committed version.
	seedRequests := 0
	for start := 0; start < cp.keys; start += cp.seedPer {
		var ops []workload.Op
		for i := start; i < start+cp.seedPer && i < cp.keys; i++ {
			ops = append(ops, workload.Op{Kind: workload.OpWrite, Key: workload.KeyName(i)})
		}
		if err := runner.Do(ctx, workload.Request{Funcs: [][]workload.Op{ops}}); err != nil {
			return res, fmt.Errorf("seeding: %w", err)
		}
		seedRequests++
	}
	c.FlushMulticast()

	// Planned storage crashes spread across the middle of the run, one
	// every gap operations at the seeding's measured op rate, so each
	// fires mid-operation-stream.
	gap := st.Ops() / int64(seedRequests) * int64(cp.requests) / int64(cp.storageCrashes+2)
	// With no planned crashes the plan never fires, so wal may be nil.
	plan := chaos.ScheduleStorageCrashes(st, wal, cp.storageCrashes, max(gap, 8))

	// enforceAll relieves every live node's budget; storage errors during
	// the spill probe (injected or crash-induced) are the next pass's
	// problem by design.
	enforceAll := func() {
		for _, n := range c.Nodes() {
			s, _ := n.EnforceBudget(ctx)
			res.spilled += int64(s)
		}
	}
	if cp.budget > 0 {
		// A shed request backs off and redoes; in a live deployment the
		// maintenance loop would be releasing memory meanwhile, so the
		// sequential harness runs that relief between redos.
		runner.OnRedo = func(ctx context.Context, err error) {
			if errors.Is(err, core.ErrOverloaded) {
				enforceAll()
			}
		}
	}

	// Faults on. Kills fire in the middle three fifths of the run so each
	// has workload before (history to lose) and after (history to verify).
	st.SetEnabled(true)
	sched := chaos.NewScheduler(c, cp.seed, chaos.PlanKills(cp.seed, cp.kills, cp.requests/5, 4*cp.requests/5))
	gen := workload.NewGenerator(cp.seed, workload.NewZipf(cp.seed+100, cp.keys, 1.0), 2, 2, 2)
	midSpillArmed := false
	for i := 0; i < cp.requests; i++ {
		if err := runner.Do(ctx, gen.Next()); err != nil {
			return res, fmt.Errorf("request %d: %w", i, err)
		}
		if cp.bulkKeys > 0 {
			var ops []workload.Op
			for j := range cp.bulkKeys {
				ops = append(ops, workload.Op{Kind: workload.OpWrite, Key: workload.KeyName((13*i + j) % cp.keys)})
			}
			if err := bulk.Do(ctx, workload.Request{Funcs: [][]workload.Op{ops}}); err != nil {
				return res, fmt.Errorf("bulk request %d: %w", i, err)
			}
		}
		if err := plan.Err(); err != nil {
			return res, err
		}
		if err := sched.Tick(ctx, i+1); err != nil {
			return res, err
		}
		if cp.budget > 0 && (i+1)%budgetEvery == 0 {
			if cp.midSpillCrash && !midSpillArmed && i+1 >= cp.requests/2 && anyOverBudget(c, cp.budget) {
				// One crash+reopen at enforcement's first storage operation
				// — the spill's probe BatchGet, since a node is over budget
				// right now and the passes before it touch only memory.
				midSpillArmed = true
				st.CrashAfter(1, func() {
					if err := wal.Crash(); err == nil {
						_ = wal.Reopen()
					}
				})
				res.storageCrashes++
			}
			enforceAll()
		}
		if (i+1)%cp.maintain == 0 {
			if err := chaosMaintenance(ctx, c); err != nil {
				return res, err
			}
		}
	}

	// Quiesce: faults off; a WAL gets one final clean restart (a cold
	// replay of the surviving log, or of the tail past the checkpoint
	// Close writes); then a full exchange and recovery, and the audit.
	st.SetEnabled(false)
	if cp.wal != nil {
		if err := wal.Close(); err != nil {
			return res, err
		}
		if err := wal.Reopen(); err != nil {
			return res, err
		}
	}
	if err := chaosMaintenance(ctx, c); err != nil {
		return res, err
	}
	if _, err := check.ResolveStorage(ctx, st); err != nil {
		return res, err
	}
	keys := make([]string, cp.keys)
	for i := range keys {
		keys[i] = workload.KeyName(i)
	}
	final, err := runner.FinalState(ctx, keys)
	if err != nil {
		return res, err
	}
	res.verdict = check.Verdict(final)
	if journal != nil {
		res.journal = canonicalJournal(journal)
	}

	res.runs = runner.Metrics().Snapshot() // the workload's; bulk writes are faults
	res.kills, res.promotions = sched.Kills(), sched.Promotions()
	res.storageCrashes += plan.Crashes()
	res.faults = st.FaultMetrics().Snapshot()
	res.recovered = c.FaultManager().Metrics().Snapshot().Recovered
	for _, n := range c.Nodes() {
		res.shed += n.Metrics().Snapshot().BudgetShed
	}
	if wal != nil {
		res.wal = wal.WAL().Snapshot()
	}
	return res, nil
}

// anyOverBudget reports whether some live node's resident metadata
// currently exceeds budget (the next enforcement pass will do real work).
func anyOverBudget(c *cluster.Cluster, budget int64) bool {
	for _, n := range c.Nodes() {
		if n.MetadataBytes() > budget {
			return true
		}
	}
	return false
}

// canonicalJournal renders the campaign's flight-recorder events as one
// line per event, sorted. Wall-clock timestamps and arrival seq are
// dropped: only the deterministic content (what happened, to whom, with
// what attributes) is verdict evidence.
func canonicalJournal(j *telemetry.Journal) []string {
	evs := j.Snapshot(telemetry.EventFilter{})
	lines := make([]string, 0, len(evs))
	for _, ev := range evs {
		line := string(ev.Type) + " " + ev.Node
		for i := 0; i+1 < len(ev.Attrs); i += 2 {
			line += " " + ev.Attrs[i] + "=" + ev.Attrs[i+1]
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return lines
}

// chaosMaintenance runs one deterministic maintenance point: multicast
// exchange, local metadata sweeps, the fault manager's recovery scan, and
// one global GC round. Each storage-facing step retries through its own
// injected faults.
func chaosMaintenance(ctx context.Context, c *cluster.Cluster) error {
	c.FlushMulticast()
	for _, n := range c.Nodes() {
		n.SweepLocalMetadata(0)
	}
	if err := chaos.Retry(ctx, 10, func() error {
		return c.FaultManager().ScanStorage(ctx)
	}); err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	if err := chaos.Retry(ctx, 10, func() error {
		_, err := c.FaultManager().CollectOnce(ctx, 2000)
		return err
	}); err != nil {
		return fmt.Errorf("collect: %w", err)
	}
	return nil
}
