package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"aft/internal/chaos"
	"aft/internal/checker"
	"aft/internal/cluster"
	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/telemetry"
	"aft/internal/workload"
)

// ChaosCell is one seed's full campaign result, exposed for the bench
// harness's machine-readable output. Every field is deterministic for a
// fixed seed (no wall-clock times, no generated IDs).
type ChaosCell struct {
	Seed     int64 `json:"seed"`
	Requests int   `json:"requests"`
	Keys     int   `json:"keys"`

	Committed     int64 `json:"committed"`
	Redos         int64 `json:"redos"`
	CommitRetries int64 `json:"commit_retries"`

	Kills      int `json:"kills"`
	Promotions int `json:"promotions"`

	StorageOps       int64 `json:"storage_ops"`
	InjectedErrors   int64 `json:"injected_errors"`
	PartialBatchPuts int64 `json:"partial_batch_puts"`
	PartialBatchGets int64 `json:"partial_batch_gets"`
	Spikes           int64 `json:"spikes"`

	RecoveredRecords int64 `json:"recovered_records"`

	Verdict checker.Verdict `json:"verdict"`

	// Journal is the flight-recorder evidence attached to the verdict:
	// one "type node k=v ..." line per campaign event (kills, standby
	// promotions, checker violations), in canonical sorted order rather
	// than arrival order — the promotion goroutine records its event
	// moments after the new node becomes visible, so arrival seq could
	// race the driver's next kill, and this cell is under a bit-for-bit
	// determinism contract.
	Journal []string `json:"journal"`
}

// ChaosTable renders measured cells as the experiment's table.
func ChaosTable(cells []ChaosCell) (Table, error) {
	table := Table{
		Title: "Chaos: seeded fault injection + read-atomicity verdict",
		Header: []string{"seed", "requests", "committed", "redos", "commit retries",
			"kills", "errors", "partial puts", "spikes", "recovered", "anomalies", "verdict"},
		Notes: []string{
			"every request redone until committed; faults: transient errors, partial batch writes, latency spikes, node kills",
			"recovered: commit records the fault manager found only by scanning storage (victim died before broadcasting)",
			"verdict: the checker's replay of the full observed history plus a post-recovery final-state audit",
		},
	}
	for _, c := range cells {
		verdict := "CLEAN"
		if !c.Verdict.Clean() {
			verdict = "ANOMALOUS"
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(c.Seed), fmt.Sprint(c.Requests), fmt.Sprint(c.Committed),
			fmt.Sprint(c.Redos), fmt.Sprint(c.CommitRetries), fmt.Sprint(c.Kills),
			fmt.Sprint(c.InjectedErrors), fmt.Sprint(c.PartialBatchPuts),
			fmt.Sprint(c.Spikes), fmt.Sprint(c.RecoveredRecords),
			fmt.Sprint(c.Verdict.Anomalies()), verdict,
		})
	}
	return table, nil
}

// ChaosCells runs the closed-loop correctness experiment: a seeded
// fault-injection campaign (transient storage errors, partial batch
// failures, latency spikes, node kills with standby promotion and
// fault-manager recovery) under the canonical workload, with the history
// checker proving read atomicity, repeatable read, and atomic write
// durability — or pinpointing where they broke.
//
// Determinism: one driver goroutine issues every request, kills fire
// synchronously between requests (the scheduler blocks until the standby
// promotion completes), and all background periods are disabled in favor
// of explicit maintenance points — so for a fixed seed the storage
// operation sequence, every fault decision, every retry, and therefore the
// entire cell (verdict included) is bit-for-bit reproducible.
//
// One campaign runs per seed (opts.Seed, +1, +2): the acceptance bar
// requires a zero-anomaly verdict across three seeds that each include at
// least one node kill and one partial batch-write failure.
func ChaosCells(opts Options) ([]ChaosCell, error) {
	opts = opts.withDefaults()
	var cells []ChaosCell
	for i := int64(0); i < 3; i++ {
		cell, err := runChaosCell(opts, opts.Seed+i)
		if err != nil {
			return cells, fmt.Errorf("chaos seed %d: %w", opts.Seed+i, err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// chaos campaign shape.
const (
	chaosNodes    = 3
	chaosKeys     = 128
	chaosSeedPer  = 16 // keys seeded per bootstrap transaction
	chaosMaintain = 20 // requests between maintenance points
	// After every request, a bulk request writes chaosBulkKeys keys of
	// chaosBulkPayload bytes each: too large to ride inside its
	// commit record, so it commits in §3.3's two phases, and partial batch
	// writes have something to split. The paper mix's small write sets
	// commit in one Put. The keys fit one DynamoDB BatchPut: a phase of
	// several calls sends them concurrently, which would make the order
	// of the injector's draws, and so the campaign, nondeterministic.
	chaosBulkKeys    = 24
	chaosBulkPayload = 1 << 10
	// chaosEpoch starts the campaign's virtual clock high enough that
	// every timestamp renders at a fixed decimal width, keeping commit-key
	// lexicographic order equal to timestamp order.
	chaosEpoch = int64(1) << 50
)

// chaosFaultRates returns the campaign's fault rates, honoring overrides.
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

// runChaosCell runs one seed's campaign.
func runChaosCell(opts Options, seed int64) (ChaosCell, error) {
	ctx := context.Background()
	requests := opts.ChaosRequests
	if requests <= 0 {
		requests = 160
		if opts.Quick {
			requests = 48
		}
	}
	kills := opts.ChaosKills
	if kills <= 0 {
		kills = 2
	}
	cell := ChaosCell{Seed: seed, Requests: requests, Keys: chaosKeys}

	// The storage substrate under test, behind the fault injector. The
	// latency model (when scale > 0) draws from its own seeded source;
	// injection decisions draw from the chaos seed.
	storeOpts := opts
	storeOpts.Seed = seed
	errRate, partialRate, spikeRate := opts.chaosFaultRates()
	st := chaos.Wrap(storeOpts.newStore(kindDynamo), chaos.Config{
		Seed:        seed,
		ErrorRate:   errRate,
		PartialRate: partialRate,
		SpikeRate:   spikeRate,
		Spike:       20 * time.Millisecond,
		Sleeper:     opts.sleeper(),
	})

	// Background periods are disabled (multicast period effectively
	// infinite, no GC loops): every exchange and collection runs at an
	// explicit, deterministic maintenance point instead. Transaction IDs
	// come from a shared virtual clock plus seeded UUID entropy, so every
	// storage KEY reproduces bit-for-bit — without this, partial-batch
	// key splits (hash-of-key) would depend on wall-clock timestamps and
	// crypto-random UUIDs and the fault pattern would drift run to run.
	journal := telemetry.NewJournal(telemetry.JournalOptions{})
	c, err := cluster.New(cluster.Config{
		Nodes:           chaosNodes,
		Standbys:        kills,
		Store:           st,
		Node:            core.Config{EnableDataCache: true, IDEntropySeed: seed},
		Clock:           idgen.NewVirtualClock(chaosEpoch, 1),
		MulticastPeriod: time.Hour,
		PruneMulticast:  true,
		Events:          journal,
	})
	if err != nil {
		return cell, err
	}
	if err := c.Start(ctx); err != nil {
		return cell, err
	}
	defer c.Stop()

	check := checker.New()
	check.SetJournal(journal)
	runner := &chaos.Runner{
		Client:  c.Client(),
		Payload: workload.Payload(seed, opts.Payload),
		Check:   check,
	}
	bulk := &chaos.Runner{
		Client:  c.Client(),
		Payload: workload.Payload(seed, max(opts.Payload, chaosBulkPayload)),
		Check:   check,
	}

	// Seed every key clean, so reads always find a committed version.
	for start := 0; start < chaosKeys; start += chaosSeedPer {
		var ops []workload.Op
		for i := start; i < start+chaosSeedPer && i < chaosKeys; i++ {
			ops = append(ops, workload.Op{Kind: workload.OpWrite, Key: workload.KeyName(i)})
		}
		if err := runner.Do(ctx, workload.Request{Funcs: [][]workload.Op{ops}}); err != nil {
			return cell, fmt.Errorf("seeding: %w", err)
		}
	}
	c.FlushMulticast()

	// Chaos on. Kills fire in the middle three fifths of the run so each
	// has workload before (history to lose) and after (history to verify).
	st.SetEnabled(true)
	sched := chaos.NewScheduler(c, seed, chaos.PlanKills(seed, kills, requests/5, 4*requests/5))
	gen := workload.NewGenerator(seed, workload.NewZipf(seed+100, chaosKeys, 1.0), 2, 2, 2)
	for i := 0; i < requests; i++ {
		if err := runner.Do(ctx, gen.Next()); err != nil {
			return cell, fmt.Errorf("request %d: %w", i, err)
		}
		var ops []workload.Op
		for j := range chaosBulkKeys {
			ops = append(ops, workload.Op{Kind: workload.OpWrite, Key: workload.KeyName((13*i + j) % chaosKeys)})
		}
		if err := bulk.Do(ctx, workload.Request{Funcs: [][]workload.Op{ops}}); err != nil {
			return cell, fmt.Errorf("bulk request %d: %w", i, err)
		}
		if err := sched.Tick(ctx, i+1); err != nil {
			return cell, err
		}
		if (i+1)%chaosMaintain == 0 {
			if err := chaosMaintenance(ctx, c); err != nil {
				return cell, err
			}
		}
	}

	// Quiesce: faults off, full exchange and recovery, then the audit.
	st.SetEnabled(false)
	if err := chaosMaintenance(ctx, c); err != nil {
		return cell, err
	}
	if _, err := check.ResolveStorage(ctx, st); err != nil {
		return cell, err
	}
	keys := make([]string, chaosKeys)
	for i := range keys {
		keys[i] = workload.KeyName(i)
	}
	final, err := runner.FinalState(ctx, keys)
	if err != nil {
		return cell, err
	}
	cell.Verdict = check.Verdict(final)
	cell.Journal = canonicalJournal(journal)

	rm := runner.Metrics().Snapshot()
	cell.Committed = rm.Commits
	cell.Redos = rm.Redos
	cell.CommitRetries = rm.CommitRetries
	cell.Kills = sched.Kills()
	cell.Promotions = sched.Promotions()
	fm := st.FaultMetrics().Snapshot()
	cell.StorageOps = fm.Ops
	cell.InjectedErrors = fm.Errors
	cell.PartialBatchPuts = fm.PartialBatchPuts
	cell.PartialBatchGets = fm.PartialBatchGets
	cell.Spikes = fm.Spikes
	cell.RecoveredRecords = c.FaultManager().Metrics().Snapshot().Recovered
	return cell, nil
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
