package experiments

// recovery.go measures the checkpointed-recovery layer end to end: WAL
// index checkpoints turn reopen cost from O(log) into O(tail), the
// metadata budget keeps a node's resident bytes bounded under sustained
// load (shedding retriably past the ceiling), and a seeded chaos campaign
// — storage crashes landing mid-spill and alongside background
// checkpoints, node kills promoted by a full bootstrap — ends in the
// history checker's CLEAN verdict.

import (
	"context"
	"fmt"
	"math"
	"time"

	"aft/internal/checker"
	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/walengine"
	"aft/internal/workload"
)

// RecoveryCell is one measurement, exposed for BENCH_recovery.json.
// Scenario selects which fields are meaningful:
//
//   - "recovery": one log size's reopen cost, full replay vs checkpointed
//     tail replay (the recovery-time-versus-tail curve);
//   - "budget": a budget-constrained node under sustained load;
//   - "campaign": one seed's chaos campaign over the checkpointing WAL
//     with budgeted nodes.
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

	// Budget.
	Records       int   `json:"records,omitempty"`
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
	Checkpoints        int64            `json:"checkpoints,omitempty"`
	CheckpointRestored int64            `json:"checkpoint_restored,omitempty"`
	InjectedErrors     int64            `json:"injected_errors,omitempty"`
	Verdict            *checker.Verdict `json:"verdict,omitempty"`
}

// RecoveryTable renders measured cells.
func RecoveryTable(cells []RecoveryCell) (Table, error) {
	table := Table{
		Title: "Recovery: WAL checkpoints, metadata budget, chaos campaign",
		Header: []string{"scenario", "detail", "full ms", "ckpt ms", "speedup",
			"spilled", "shed", "verdict"},
		Notes: []string{
			"recovery: reopen of the same log cold (full replay) vs with a checkpoint + 1% tail",
			"budget: sustained load against MetadataBudgetBytes; past the hard ceiling the node sheds retriably",
			"campaign: seeded chaos (storage crashes incl. one armed mid-spill, node kills with standby promotion) over the checkpointing WAL",
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
			dash(c.Spilled > 0, fmt.Sprint(c.Spilled)),
			dash(c.Scenario == "budget", fmt.Sprint(c.Shed)),
			verdict,
		})
	}
	return table, nil
}

// RecoveryCells runs every scenario: a checkpoint-vs-replay sweep over
// growing logs, a budget-constrained run, and one chaos campaign per seed (opts.Seed, +1, +2) — the
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
	{
		cell, err := runRecoveryBudget(opts)
		if err != nil {
			return cells, fmt.Errorf("recovery budget: %w", err)
		}
		cells = append(cells, cell)
	}
	for i := int64(0); i < 3; i++ {
		cell, err := recoveryCampaign(opts, opts.Seed+i)
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

// recoveryCampaign runs one seed's crash campaign with the recovery
// machinery switched on: the WAL checkpoints in the background, and
// cluster nodes carry a metadata budget enforced every few requests; one
// enforcement pass runs with a storage crash armed one operation ahead, so
// the crash lands inside the spill's probe. The budget is tight enough
// that the workload's record churn overruns it between enforcement passes
// (spills happen), loose enough that the sequential runner never starves
// behind the shed ceiling waiting for a pass.
func recoveryCampaign(opts Options, seed int64) (RecoveryCell, error) {
	cp := campaign{
		seed: seed, requests: opts.campaignRequests(140, 40),
		nodes: 3, keys: 96, seedPer: 16, maintain: 20,
		wal: &walengine.Options{
			SegmentBytes: 128 << 10, CompactGarbageBytes: 256 << 10, CheckpointEvery: 400,
		},
		kills: opts.campaignKills(1), storageCrashes: 2, midSpillCrash: true,
		budget: 16 << 10,
	}
	r, err := runCampaign(opts, cp)
	if err != nil {
		return RecoveryCell{}, err
	}
	return RecoveryCell{
		Scenario: "campaign", Seed: seed, Requests: cp.requests,
		Committed: r.runs.Commits, Redos: r.runs.Redos,
		StorageCrashes: r.storageCrashes, Kills: r.kills, Promotions: r.promotions,
		Checkpoints: r.wal.Checkpoints, CheckpointRestored: r.wal.CheckpointRestored,
		InjectedErrors: r.faults.Errors, Spilled: r.spilled, Shed: r.shed,
		Verdict: &r.verdict,
	}, nil
}
