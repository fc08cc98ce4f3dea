package experiments

// recovery.go measures the checkpointed-recovery layer end to end: WAL
// index checkpoints turn reopen cost from O(log) into O(tail), the
// watermark/incremental bootstrap turns a node restart's storage traffic
// from O(history) into O(delta), the metadata budget keeps a node's
// resident bytes bounded under sustained load (shedding retriably past
// the ceiling), and a seeded chaos campaign — storage crashes landing
// mid-spill and alongside background checkpoints, node kills promoted via
// incremental bootstrap — ends in the history checker's CLEAN verdict.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"aft/internal/chaos"
	"aft/internal/checker"
	"aft/internal/cluster"
	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/walengine"
	"aft/internal/workload"
)

// RecoveryCell is one measurement, exposed for BENCH_recovery.json.
// Scenario selects which fields are meaningful:
//
//   - "recovery": one log size's reopen cost, full replay vs checkpointed
//     tail replay (the recovery-time-versus-tail curve);
//   - "bootstrap": one watermark delta's restart traffic, fetched versus
//     skipped records (the bootstrap-traffic-versus-delta curve);
//   - "budget": a budget-constrained node under sustained load;
//   - "campaign": one seed's chaos campaign over the checkpointing WAL
//     with budgeted nodes and incremental promotions.
type RecoveryCell struct {
	Scenario string `json:"scenario"`

	// Recovery (checkpoint vs full replay).
	Entries           int     `json:"entries,omitempty"`
	Keys              int     `json:"keys,omitempty"`
	Segments          int     `json:"segments,omitempty"`
	TailRecords       int     `json:"tail_records,omitempty"`
	FullReplayMS      float64 `json:"full_replay_ms,omitempty"`
	CheckpointedMS    float64 `json:"checkpointed_ms,omitempty"`
	Speedup           float64 `json:"speedup,omitempty"`
	CheckpointEntries int64   `json:"checkpoint_entries,omitempty"`
	ReplayedTail      int64   `json:"replayed_tail,omitempty"`

	// Bootstrap (incremental vs full).
	Records        int     `json:"records,omitempty"`
	DeltaRecords   int     `json:"delta_records,omitempty"`
	FetchedRecords int     `json:"fetched_records,omitempty"`
	SkippedRecords int64   `json:"skipped_records,omitempty"`
	BootstrapMS    float64 `json:"bootstrap_ms,omitempty"`

	// Budget.
	BudgetBytes   int64 `json:"budget_bytes,omitempty"`
	PeakBytes     int64 `json:"peak_bytes,omitempty"`
	FinalBytes    int64 `json:"final_bytes,omitempty"`
	Spilled       int64 `json:"spilled,omitempty"`
	Shed          int64 `json:"shed,omitempty"`
	RemoteFetches int64 `json:"remote_fetches,omitempty"`

	// Campaign.
	Seed               int64            `json:"seed,omitempty"`
	Requests           int              `json:"requests,omitempty"`
	Committed          int64            `json:"committed,omitempty"`
	Redos              int64            `json:"redos,omitempty"`
	StorageCrashes     int              `json:"storage_crashes,omitempty"`
	Kills              int              `json:"kills,omitempty"`
	Promotions         int              `json:"promotions,omitempty"`
	BootstrapSkipped   int64            `json:"bootstrap_skipped,omitempty"`
	Checkpoints        int64            `json:"checkpoints,omitempty"`
	CheckpointRestored int64            `json:"checkpoint_restored,omitempty"`
	InjectedErrors     int64            `json:"injected_errors,omitempty"`
	Verdict            *checker.Verdict `json:"verdict,omitempty"`
}

// RecoveryTable renders measured cells.
func RecoveryTable(cells []RecoveryCell) (Table, error) {
	table := Table{
		Title: "Recovery: WAL checkpoints, incremental bootstrap, metadata budget, chaos campaign",
		Header: []string{"scenario", "detail", "full ms", "ckpt ms", "speedup",
			"fetched", "skipped", "spilled", "shed", "verdict"},
		Notes: []string{
			"recovery: reopen of the same log cold (full replay) vs with a checkpoint + 1% tail",
			"bootstrap: restart warm-up fetching only commit records past the watermark; skipped history serves on demand",
			"budget: sustained load against MetadataBudgetBytes; past the hard ceiling the node sheds retriably",
			"campaign: seeded chaos (storage crashes incl. one armed mid-spill, kills with incremental promotion) over the checkpointing WAL",
			"verdict: the history checker's full replay + final-state lost-write audit",
		},
	}
	dash := func(ok bool, s string) string {
		if ok {
			return s
		}
		return "-"
	}
	for _, c := range cells {
		detail, verdict := "", "-"
		switch c.Scenario {
		case "recovery":
			detail = fmt.Sprintf("%d entries / %d keys, %d segs", c.Entries, c.Keys, c.Segments)
		case "bootstrap":
			detail = fmt.Sprintf("%d records, delta %d", c.Records, c.DeltaRecords)
		case "budget":
			detail = fmt.Sprintf("budget %d B, %d commits", c.BudgetBytes, c.Records)
		case "campaign":
			detail = fmt.Sprintf("seed %d, %d reqs", c.Seed, c.Requests)
			if c.Verdict != nil {
				if c.Verdict.Clean() {
					verdict = "CLEAN"
				} else {
					verdict = "ANOMALOUS"
				}
			}
		}
		table.Rows = append(table.Rows, []string{
			c.Scenario, detail,
			dash(c.FullReplayMS > 0, fmt.Sprintf("%.1f", c.FullReplayMS)),
			dash(c.CheckpointedMS > 0, fmt.Sprintf("%.1f", c.CheckpointedMS)),
			dash(c.Speedup > 0, fmt.Sprintf("%.1fx", c.Speedup)),
			dash(c.Scenario == "bootstrap", fmt.Sprint(c.FetchedRecords)),
			dash(c.SkippedRecords > 0 || c.Scenario == "bootstrap", fmt.Sprint(c.SkippedRecords)),
			dash(c.Spilled > 0, fmt.Sprint(c.Spilled)),
			dash(c.Scenario == "budget", fmt.Sprint(c.Shed)),
			verdict,
		})
	}
	return table, nil
}

// RecoveryCells runs every scenario: a checkpoint-vs-replay sweep over
// growing logs, an incremental-bootstrap delta sweep, a budget-constrained
// run, and one chaos campaign per seed (opts.Seed, +1, +2) — the
// acceptance bar is a zero-anomaly verdict in each campaign and, at full
// scale, a >=10x checkpointed-reopen speedup on the largest log.
func RecoveryCells(opts Options) ([]RecoveryCell, error) {
	opts = opts.withDefaults()
	var cells []RecoveryCell
	for _, entries := range []int{opts.scaled(12000), opts.scaled(40000), opts.scaled(120000)} {
		cell, err := runRecoveryReopen(opts, entries)
		if err != nil {
			return cells, fmt.Errorf("recovery reopen %d: %w", entries, err)
		}
		cells = append(cells, cell)
	}
	for _, frac := range []float64{1.0, 0.25, 0.05} {
		cell, err := runRecoveryBootstrap(opts, frac)
		if err != nil {
			return cells, fmt.Errorf("recovery bootstrap %.2f: %w", frac, err)
		}
		cells = append(cells, cell)
	}
	{
		cell, err := runRecoveryBudget(opts)
		if err != nil {
			return cells, fmt.Errorf("recovery budget: %w", err)
		}
		cells = append(cells, cell)
	}
	for i := int64(0); i < 3; i++ {
		cell, err := runRecoveryCampaign(opts, opts.Seed+i)
		if err != nil {
			return cells, fmt.Errorf("recovery campaign seed %d: %w", opts.Seed+i, err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// runRecoveryReopen measures the same log's reopen cost twice: cold (full
// replay of every record) and with a fresh checkpoint plus a 1% tail. The
// log overwrites each key ~50 times, so the checkpoint's index (one entry
// per live key) is ~50x smaller than the record stream — the structural
// ratio the speedup comes from.
func runRecoveryReopen(opts Options, entries int) (RecoveryCell, error) {
	ctx := context.Background()
	keys := entries / 50
	if keys < 10 {
		keys = 10
	}
	tail := entries / 100
	if tail < 10 {
		tail = 10
	}
	cell := RecoveryCell{Scenario: "recovery", Entries: entries, Keys: keys, TailRecords: tail}

	dir, cleanup, err := walDir()
	if err != nil {
		return cell, err
	}
	defer cleanup()
	// No background compaction: the log keeps every record written.
	st, err := walengine.Open(dir, walengine.Options{SegmentBytes: 1 << 20, CompactGarbageBytes: math.MaxInt64})
	if err != nil {
		return cell, err
	}
	defer st.Close()

	payload := workload.Payload(opts.Seed, 128)
	// Flush on loop count, not map size: keys repeat (the overwrite churn
	// the checkpoint collapses), so the map stays small. The chunk never
	// exceeds the key count, so consecutive i%keys within one batch are
	// distinct and every loop iteration lands one record in the log.
	chunk := 100
	if chunk > keys {
		chunk = keys
	}
	batch := make(map[string][]byte, chunk)
	for i := 0; i < entries; i++ {
		batch[fmt.Sprintf("r-%07d", i%keys)] = payload
		if (i+1)%chunk == 0 || i == entries-1 {
			if err := st.BatchPut(ctx, batch); err != nil {
				return cell, err
			}
			batch = make(map[string][]byte, chunk)
		}
	}

	// Cold reopen: no checkpoint exists yet, every record replays.
	if err := st.Close(); err != nil {
		return cell, err
	}
	before := st.WAL().Snapshot().ReplayedRecords
	start := time.Now()
	if err := st.Reopen(); err != nil {
		return cell, err
	}
	cell.FullReplayMS = float64(time.Since(start).Microseconds()) / 1000
	if replayed := st.WAL().Snapshot().ReplayedRecords - before; replayed < int64(entries) {
		return cell, fmt.Errorf("cold reopen replayed %d records, want >= %d", replayed, entries)
	}
	if got := st.Len(); got != keys {
		return cell, fmt.Errorf("cold reopen recovered %d keys, want %d", got, keys)
	}

	// Checkpoint, append the tail, reopen again: only the tail replays.
	ckpt, err := st.Checkpoint(ctx)
	if err != nil {
		return cell, err
	}
	cell.CheckpointEntries = int64(ckpt.Entries)
	cell.Segments = ckpt.Segments
	for i := 0; i < tail; i++ {
		batch[fmt.Sprintf("r-%07d", i%keys)] = payload
		if (i+1)%chunk == 0 || i == tail-1 {
			if err := st.BatchPut(ctx, batch); err != nil {
				return cell, err
			}
			batch = make(map[string][]byte, chunk)
		}
	}
	if err := st.Close(); err != nil {
		return cell, err
	}
	beforeTail := st.WAL().Snapshot().ReplayedTailRecords
	start = time.Now()
	if err := st.Reopen(); err != nil {
		return cell, err
	}
	cell.CheckpointedMS = float64(time.Since(start).Microseconds()) / 1000
	cell.ReplayedTail = st.WAL().Snapshot().ReplayedTailRecords - beforeTail
	if cell.ReplayedTail > int64(2*tail) {
		return cell, fmt.Errorf("checkpointed reopen replayed %d records, want ~%d (tail only)", cell.ReplayedTail, tail)
	}
	if got := st.Len(); got != keys {
		return cell, fmt.Errorf("checkpointed reopen recovered %d keys, want %d", got, keys)
	}
	if cell.CheckpointedMS > 0 {
		cell.Speedup = cell.FullReplayMS / cell.CheckpointedMS
	}
	return cell, nil
}

// runRecoveryBootstrap measures a restart's warm-up traffic at one
// watermark delta: with frac of the commit history still ahead of the
// watermark, BootstrapSince must fetch ~frac of the records and skip the
// rest (served on demand afterwards). frac 1.0 is the cold-start control.
func runRecoveryBootstrap(opts Options, frac float64) (RecoveryCell, error) {
	ctx := context.Background()
	total := opts.scaled(2000)
	cell := RecoveryCell{Scenario: "bootstrap", Records: total}

	store := kvengine.NewDynamoDB(kvengine.Options{})
	clock := idgen.NewVirtualClock(chaosEpoch, 1)
	writer, err := core.NewNode(core.Config{NodeID: "w", Store: store, Clock: clock})
	if err != nil {
		return cell, err
	}
	payload := workload.Payload(opts.Seed, 64)
	const perTxn = 5
	for start := 0; start < total; start += perTxn {
		txid, err := writer.StartTransaction(ctx)
		if err != nil {
			return cell, err
		}
		for i := start; i < start+perTxn && i < total; i++ {
			if err := writer.Put(ctx, txid, fmt.Sprintf("b-%05d", i), payload); err != nil {
				return cell, err
			}
		}
		if _, err := writer.CommitTransaction(ctx, txid); err != nil {
			return cell, err
		}
	}

	// The watermark sits (1-frac) of the way through the sorted history.
	commitKeys, err := store.List(ctx, records.CommitPrefix)
	if err != nil {
		return cell, err
	}
	sort.Strings(commitKeys)
	cell.Records = len(commitKeys) // commit records, not keys: the bootstrap unit
	since := ""
	cut := int(float64(len(commitKeys)) * (1 - frac))
	if cut > 0 {
		since = commitKeys[cut-1]
	}
	cell.DeltaRecords = len(commitKeys) - cut

	node, err := core.NewNode(core.Config{NodeID: "r", Store: store, Clock: clock})
	if err != nil {
		return cell, err
	}
	start := time.Now()
	if err := node.BootstrapSince(ctx, since); err != nil {
		return cell, err
	}
	cell.BootstrapMS = float64(time.Since(start).Microseconds()) / 1000
	cell.FetchedRecords = node.MetadataSize()
	cell.SkippedRecords = node.Metrics().Snapshot().BootstrapSkipped
	if cell.FetchedRecords != cell.DeltaRecords {
		return cell, fmt.Errorf("fetched %d records, want the %d-record delta", cell.FetchedRecords, cell.DeltaRecords)
	}
	// Skipped history must still serve: read the very first key on demand.
	if cut > 0 {
		txid, err := node.StartTransaction(ctx)
		if err != nil {
			return cell, err
		}
		if _, err := node.Get(ctx, txid, "b-00000"); err != nil {
			return cell, fmt.Errorf("pre-watermark key unreadable after incremental bootstrap: %w", err)
		}
		if _, err := node.CommitTransaction(ctx, txid); err != nil {
			return cell, err
		}
	}
	return cell, nil
}

// runRecoveryBudget drives sustained distinct-key commits against a node
// whose budget is far below the live record set: enforcement must spill
// cold records, reads must recover them on demand, the ceiling must shed
// retriably, and the final resident bytes must sit under the budget.
func runRecoveryBudget(opts Options) (RecoveryCell, error) {
	ctx := context.Background()
	// Even quick mode's scaled count must leave the live record set several
	// times the budget, or nothing ever spills.
	commits := opts.scaled(6000)
	const budget = 12 << 10
	cell := RecoveryCell{Scenario: "budget", BudgetBytes: budget, Records: commits}

	store := kvengine.NewDynamoDB(kvengine.Options{})
	node, err := core.NewNode(core.Config{
		NodeID: "b", Store: store,
		Clock:               idgen.NewVirtualClock(chaosEpoch, 1),
		MetadataBudgetBytes: budget,
	})
	if err != nil {
		return cell, err
	}

	payload := workload.Payload(opts.Seed, 64)
	commit := func(i int) error {
		txid, err := node.StartTransaction(ctx)
		if err != nil {
			return err
		}
		if err := node.Put(ctx, txid, fmt.Sprintf("c-%05d", i), payload); err != nil {
			return err
		}
		_, err = node.CommitTransaction(ctx, txid)
		return err
	}
	for i := 0; i < commits; i++ {
		err := commit(i)
		for attempt := 0; err == core.ErrOverloaded && attempt < 8; attempt++ {
			// The shed contract: enforcement releases memory, the retry
			// admits.
			if _, err = node.EnforceBudget(ctx); err != nil {
				return cell, err
			}
			err = commit(i)
		}
		if err != nil {
			return cell, err
		}
		if b := node.MetadataBytes(); b > cell.PeakBytes {
			cell.PeakBytes = b
		}
		if (i+1)%25 == 0 {
			if _, err := node.EnforceBudget(ctx); err != nil {
				return cell, err
			}
		}
	}
	if _, err := node.EnforceBudget(ctx); err != nil {
		return cell, err
	}
	cell.FinalBytes = node.MetadataBytes()
	if cell.FinalBytes > budget {
		return cell, fmt.Errorf("final resident bytes %d over budget %d", cell.FinalBytes, budget)
	}

	// Spilled history must read back correctly on demand.
	txid, err := node.StartTransaction(ctx)
	if err != nil {
		return cell, err
	}
	for _, i := range []int{0, 1, commits - 1} {
		if _, err := node.Get(ctx, txid, fmt.Sprintf("c-%05d", i)); err != nil {
			return cell, fmt.Errorf("spilled key c-%05d unreadable: %w", i, err)
		}
	}
	if _, err := node.CommitTransaction(ctx, txid); err != nil {
		return cell, err
	}

	m := node.Metrics().Snapshot()
	cell.Spilled, cell.Shed, cell.RemoteFetches = m.SpilledRecords, m.BudgetShed, m.RemoteFetches
	if cell.Spilled == 0 {
		return cell, fmt.Errorf("no records spilled with the live set ~%dx the budget", 4)
	}
	return cell, nil
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

// runRecoveryCampaign is the durability campaign's shape with this PR's
// machinery switched on: the WAL checkpoints in the background, cluster
// nodes carry a metadata budget enforced at the maintenance cadence (one
// enforcement pass runs with a storage crash armed one operation ahead, so
// the crash lands inside the spill's probe), and node kills promote
// standbys through the incremental fault-manager-fed bootstrap. The
// checker then proves no acknowledged commit vanished.
func runRecoveryCampaign(opts Options, seed int64) (RecoveryCell, error) {
	ctx := context.Background()
	requests := opts.ChaosRequests
	if requests <= 0 {
		requests = 140
		if opts.Quick {
			requests = 40
		}
	}
	kills := opts.ChaosKills
	if kills <= 0 {
		kills = 1
	}
	const storageCrashes = 2
	// Tight enough that the workload's record churn overruns it between
	// enforcement passes (spills happen), loose enough that the sequential
	// runner never starves behind the shed ceiling waiting for a pass.
	const nodeBudget = 16 << 10
	cell := RecoveryCell{Scenario: "campaign", Seed: seed, Requests: requests}

	dir, cleanup, err := walDir()
	if err != nil {
		return cell, err
	}
	defer cleanup()
	wal, err := walengine.Open(dir, walengine.Options{
		SegmentBytes:        128 << 10,
		CompactGarbageBytes: 256 << 10,
		CheckpointEvery:     400,
	})
	if err != nil {
		return cell, err
	}
	defer wal.Close()

	errRate, partialRate, spikeRate := opts.chaosFaultRates()
	st := chaos.Wrap(wal, chaos.Config{
		Seed:        seed,
		ErrorRate:   errRate,
		PartialRate: partialRate,
		SpikeRate:   spikeRate,
		Spike:       20 * time.Millisecond,
		Sleeper:     opts.sleeper(),
	})

	c, err := cluster.New(cluster.Config{
		Nodes:    durNodes,
		Standbys: kills,
		Store:    st,
		Node: core.Config{
			EnableDataCache:     true,
			IDEntropySeed:       seed,
			MetadataBudgetBytes: nodeBudget,
		},
		Clock:                idgen.NewVirtualClock(chaosEpoch, 1),
		MulticastPeriod:      time.Hour,
		PruneMulticast:       true,
		IncrementalBootstrap: true,
	})
	if err != nil {
		return cell, err
	}
	if err := c.Start(ctx); err != nil {
		return cell, err
	}
	defer c.Stop()

	check := checker.New()
	runner := &chaos.Runner{
		Client:  c.Client(),
		Payload: workload.Payload(seed, opts.Payload),
		Check:   check,
	}
	seedRequests := 0
	for start := 0; start < durKeys; start += durSeedPer {
		var ops []workload.Op
		for i := start; i < start+durSeedPer && i < durKeys; i++ {
			ops = append(ops, workload.Op{Kind: workload.OpWrite, Key: workload.KeyName(i)})
		}
		if err := runner.Do(ctx, workload.Request{Funcs: [][]workload.Op{ops}}); err != nil {
			return cell, fmt.Errorf("seeding: %w", err)
		}
		seedRequests++
	}
	c.FlushMulticast()

	opsPerReq := st.Ops() / int64(seedRequests)
	gap := opsPerReq * int64(requests) / (storageCrashes + 2)
	if gap < 8 {
		gap = 8
	}
	plan := chaos.ScheduleStorageCrashes(st, wal, storageCrashes, gap)

	// enforceAll relieves every live node's budget; storage errors during
	// the spill probe (injected or crash-induced) are the next pass's
	// problem by design.
	enforceAll := func() int64 {
		var spilled int64
		for _, n := range c.Nodes() {
			s, _ := n.EnforceBudget(ctx)
			spilled += int64(s)
		}
		return spilled
	}
	// A shed request backs off and redoes; in a live deployment the
	// maintenance loop would be releasing memory meanwhile, so the
	// sequential harness runs that relief between redos.
	runner.OnRedo = func(ctx context.Context, err error) {
		if errors.Is(err, core.ErrOverloaded) {
			cell.Spilled += enforceAll()
		}
	}

	st.SetEnabled(true)
	sched := chaos.NewScheduler(c, seed, chaos.PlanKills(seed, kills, requests/5, 4*requests/5))
	gen := workload.NewGenerator(seed, workload.NewZipf(seed+100, durKeys, 1.0), 2, 2, 2)
	midSpillArmed := false
	for i := 0; i < requests; i++ {
		if err := runner.Do(ctx, gen.Next()); err != nil {
			return cell, fmt.Errorf("request %d: %w", i, err)
		}
		if err := plan.Err(); err != nil {
			return cell, err
		}
		if err := sched.Tick(ctx, i+1); err != nil {
			return cell, err
		}
		if (i+1)%5 == 0 {
			if !midSpillArmed && i+1 >= requests/2 && anyOverBudget(c, nodeBudget) {
				// One crash+reopen at enforcement's first storage operation
				// — the spill's probe BatchGet, since a node is over budget
				// right now and the passes before it touch only memory.
				midSpillArmed = true
				st.CrashAfter(1, func() {
					if err := wal.Crash(); err == nil {
						_ = wal.Reopen()
					}
				})
				cell.StorageCrashes++
			}
			cell.Spilled += enforceAll()
		}
		if (i+1)%durMaint == 0 {
			if err := chaosMaintenance(ctx, c); err != nil {
				return cell, err
			}
		}
	}

	// Quiesce: faults off, one final CLEAN restart of the engine — with
	// checkpoints enabled Close writes one, so the reopen replays only the
	// post-checkpoint tail — then recovery and the audit.
	st.SetEnabled(false)
	if err := wal.Close(); err != nil {
		return cell, err
	}
	if err := wal.Reopen(); err != nil {
		return cell, err
	}
	if err := chaosMaintenance(ctx, c); err != nil {
		return cell, err
	}
	if _, err := check.ResolveStorage(ctx, st); err != nil {
		return cell, err
	}
	keys := make([]string, durKeys)
	for i := range keys {
		keys[i] = workload.KeyName(i)
	}
	final, err := runner.FinalState(ctx, keys)
	if err != nil {
		return cell, err
	}
	verdict := check.Verdict(final)
	cell.Verdict = &verdict

	rm := runner.Metrics().Snapshot()
	cell.Committed = rm.Commits
	cell.Redos = rm.Redos
	cell.StorageCrashes += plan.Crashes()
	cell.Kills = sched.Kills()
	cell.Promotions = sched.Promotions()
	cell.InjectedErrors = st.FaultMetrics().Snapshot().Errors
	for _, n := range c.Nodes() {
		m := n.Metrics().Snapshot()
		cell.BootstrapSkipped += m.BootstrapSkipped
		cell.Shed += m.BudgetShed
	}
	w := wal.WAL().Snapshot()
	cell.Checkpoints = w.Checkpoints
	cell.CheckpointRestored = w.CheckpointRestored
	return cell, nil
}
