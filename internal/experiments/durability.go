package experiments

// durability.go measures the WAL storage engine's three claims: it keeps
// throughput in the same league as the in-memory engines by coalescing
// fsyncs (group fsync), it recovers a log of any size by replay, and —
// the headline — AFT over it survives storage-process crashes: a seeded
// chaos campaign crashes the engine mid-workload (Close-then-Reopen at
// exact storage-op indices, landing inside commit protocols), and the
// history checker's lost-write audit proves no acknowledged transaction
// vanished.

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"aft/internal/checker"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/walengine"
	"aft/internal/workload"
)

// DurabilityCell is one measurement, exposed for BENCH_durability.json.
// Scenario selects which fields are meaningful:
//
//   - "throughput": Engine, Writers, Ops, OpsPerSec, and (wal only) the
//     fsync-coalescing evidence;
//   - "recovery": Entries, LogBytes, Segments, RecoveryMS, ReplayedRecords;
//   - "campaign": one seed's crash campaign — workload outcome, injected
//     faults, storage crashes, node kills, WAL work, and the verdict.
type DurabilityCell struct {
	Scenario string `json:"scenario"`

	// Throughput.
	Engine    string  `json:"engine,omitempty"`
	Writers   int     `json:"writers,omitempty"`
	Ops       int64   `json:"ops,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`

	// WAL evidence (throughput and campaign).
	Appends         int64   `json:"appends,omitempty"`
	Fsyncs          int64   `json:"fsyncs,omitempty"`
	AppendsPerFsync float64 `json:"appends_per_fsync,omitempty"`
	Compactions     int64   `json:"compactions,omitempty"`
	BytesReclaimed  int64   `json:"bytes_reclaimed,omitempty"`

	// Recovery.
	Entries         int     `json:"entries,omitempty"`
	LogBytes        int64   `json:"log_bytes,omitempty"`
	Segments        int     `json:"segments,omitempty"`
	RecoveryMS      float64 `json:"recovery_ms,omitempty"`
	ReplayedRecords int64   `json:"replayed_records,omitempty"`

	// Campaign.
	Seed             int64            `json:"seed,omitempty"`
	Requests         int              `json:"requests,omitempty"`
	Committed        int64            `json:"committed,omitempty"`
	Redos            int64            `json:"redos,omitempty"`
	CommitRetries    int64            `json:"commit_retries,omitempty"`
	StorageCrashes   int              `json:"storage_crashes,omitempty"`
	Kills            int              `json:"kills,omitempty"`
	Promotions       int              `json:"promotions,omitempty"`
	InjectedErrors   int64            `json:"injected_errors,omitempty"`
	PartialBatchPuts int64            `json:"partial_batch_puts,omitempty"`
	RecoveredRecords int64            `json:"recovered_records,omitempty"`
	Verdict          *checker.Verdict `json:"verdict,omitempty"`
}

// DurabilityTable renders measured cells.
func DurabilityTable(cells []DurabilityCell) (Table, error) {
	table := Table{
		Title: "Durability: WAL engine throughput, recovery, and storage-crash campaign",
		Header: []string{"scenario", "detail", "ops", "ops/s", "appends/fsync",
			"recovery ms", "crashes", "kills", "anomalies", "verdict"},
		Notes: []string{
			"throughput: concurrent writers; the wal engine acknowledges only after fsync, coalesced by the group-fsync window",
			"recovery: Close + Reopen of a populated log; replay rebuilds the index at the reported cost",
			"campaign: seeded chaos with Close-then-Reopen storage crashes landing at exact storage-op indices mid-protocol",
			"verdict: the history checker's full replay + final-state lost-write audit (commits acked before a crash included)",
		},
	}
	for _, c := range cells {
		detail, recovery, crashes, kills, anomalies, verdict := "", "-", "-", "-", "-", "-"
		switch c.Scenario {
		case "throughput":
			detail = fmt.Sprintf("%s, %d writers", c.Engine, c.Writers)
		case "recovery":
			detail = fmt.Sprintf("%d entries, %d segs", c.Entries, c.Segments)
			recovery = fmt.Sprintf("%.1f", c.RecoveryMS)
		case "campaign":
			detail = fmt.Sprintf("seed %d, %d reqs", c.Seed, c.Requests)
			crashes = fmt.Sprint(c.StorageCrashes)
			kills = fmt.Sprint(c.Kills)
			anomalies = fmt.Sprint(c.Verdict.Anomalies())
			if c.Verdict.Clean() {
				verdict = "CLEAN"
			} else {
				verdict = "ANOMALOUS"
			}
		}
		apf := "-"
		if c.AppendsPerFsync > 0 {
			apf = fmt.Sprintf("%.1f", c.AppendsPerFsync)
		}
		ops := "-"
		if c.Ops > 0 {
			ops = fmt.Sprint(c.Ops)
		}
		opsPerSec := "-"
		if c.OpsPerSec > 0 {
			opsPerSec = fmt.Sprintf("%.0f", c.OpsPerSec)
		}
		table.Rows = append(table.Rows, []string{
			c.Scenario, detail, ops, opsPerSec, apf, recovery, crashes, kills, anomalies, verdict,
		})
	}
	return table, nil
}

// DurabilityCells runs every scenario: two throughput cells (wal vs
// memory), a recovery sweep, and one crash campaign per seed (opts.Seed,
// +1, +2) — the acceptance bar is a zero-anomaly verdict with at least one
// mid-run storage crash in each.
func DurabilityCells(opts Options) ([]DurabilityCell, error) {
	opts = opts.withDefaults()
	var cells []DurabilityCell
	for _, engine := range []string{"wal", "memory"} {
		cell, err := runDurabilityThroughput(opts, engine)
		if err != nil {
			return cells, fmt.Errorf("durability throughput %s: %w", engine, err)
		}
		cells = append(cells, cell)
	}
	for _, entries := range []int{opts.scaled(2000), opts.scaled(8000), opts.scaled(24000)} {
		cell, err := runDurabilityRecovery(opts, entries)
		if err != nil {
			return cells, fmt.Errorf("durability recovery %d: %w", entries, err)
		}
		cells = append(cells, cell)
	}
	for i := int64(0); i < 3; i++ {
		cell, err := durabilityCampaign(opts, opts.Seed+i)
		if err != nil {
			return cells, fmt.Errorf("durability campaign seed %d: %w", opts.Seed+i, err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// walDir creates a temp log directory and returns it with its cleanup.
func walDir() (string, func(), error) {
	dir, err := os.MkdirTemp("", "aft-durability-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// runDurabilityThroughput drives concurrent writers at a bare store:
// "wal" acknowledges after group-coalesced fsyncs, "memory" (the
// latency-free DynamoDB sim, i.e. the shared kvengine core) acknowledges
// from RAM. The wal cell's AppendsPerFsync is the coalescing evidence —
// it must exceed 1 under concurrent load.
func runDurabilityThroughput(opts Options, engine string) (DurabilityCell, error) {
	ctx := context.Background()
	cell := DurabilityCell{Scenario: "throughput", Engine: engine,
		Writers: 8, Ops: int64(8 * opts.scaled(400))}
	perWriter := int(cell.Ops) / cell.Writers

	var st storage.Store
	var wal *walengine.Store
	switch engine {
	case "wal":
		dir, cleanup, err := walDir()
		if err != nil {
			return cell, err
		}
		defer cleanup()
		wal, err = walengine.Open(dir, walengine.Options{})
		if err != nil {
			return cell, err
		}
		defer wal.Close()
		st = wal
	default:
		st = kvengine.NewDynamoDB(kvengine.Options{})
	}

	payload := workload.Payload(opts.Seed, opts.Payload)
	var wg, release sync.WaitGroup
	release.Add(1)
	errs := make(chan error, cell.Writers)
	for w := 0; w < cell.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			release.Wait() // all writers start together
			for i := 0; i < perWriter; i++ {
				if err := st.Put(ctx, fmt.Sprintf("t-%d-%d", w, i%64), payload); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	start := time.Now()
	release.Done()
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return cell, err
	}
	cell.OpsPerSec = float64(cell.Ops) / elapsed.Seconds()
	if wal != nil {
		w := wal.WAL().Snapshot()
		cell.Appends, cell.Fsyncs, cell.AppendsPerFsync = w.Appends, w.Fsyncs, w.AppendsPerFsync
		cell.Compactions, cell.BytesReclaimed = w.Compactions, w.BytesReclaimed
	}
	return cell, nil
}

// runDurabilityRecovery populates a log with entries keys, closes it, and
// measures the replay cost of reopening — recovery time versus log size.
func runDurabilityRecovery(opts Options, entries int) (DurabilityCell, error) {
	ctx := context.Background()
	cell := DurabilityCell{Scenario: "recovery", Entries: entries}
	dir, cleanup, err := walDir()
	if err != nil {
		return cell, err
	}
	defer cleanup()
	// Small segments so recovery spans a multi-segment log even at the
	// quick-mode sweep sizes; 256-byte values keep the sweep about log
	// STRUCTURE, not disk volume. No background compaction: the log keeps
	// every record the sweep wrote.
	st, err := walengine.Open(dir, walengine.Options{SegmentBytes: 32 << 10, CompactGarbageBytes: math.MaxInt64})
	if err != nil {
		return cell, err
	}
	defer st.Close()
	payload := workload.Payload(opts.Seed, 256)
	const chunk = 64
	batch := make(map[string][]byte, chunk)
	for i := 0; i < entries; i++ {
		batch[fmt.Sprintf("r-%07d", i)] = payload
		if len(batch) == chunk || i == entries-1 {
			if err := st.BatchPut(ctx, batch); err != nil {
				return cell, err
			}
			batch = make(map[string][]byte, chunk)
		}
	}
	if err := st.Close(); err != nil {
		return cell, err
	}
	sizes, err := os.ReadDir(dir)
	if err != nil {
		return cell, err
	}
	for _, e := range sizes {
		if info, err := e.Info(); err == nil {
			cell.LogBytes += info.Size()
		}
	}
	cell.Segments = len(sizes)
	before := st.WAL().Snapshot().ReplayedRecords
	start := time.Now()
	if err := st.Reopen(); err != nil {
		return cell, err
	}
	cell.RecoveryMS = float64(time.Since(start).Microseconds()) / 1000
	cell.ReplayedRecords = st.WAL().Snapshot().ReplayedRecords - before
	if got := st.Len(); got != entries {
		return cell, fmt.Errorf("replay recovered %d keys, want %d", got, entries)
	}
	return cell, nil
}

// durabilityCampaign runs one seed's storage-crash campaign: the chaos
// campaign's faults over the WAL engine, plus Close-then-Reopen crashes
// of the engine itself at storage-op indices that land mid-protocol. The
// checker then proves no acknowledged commit vanished. Small segments and
// eager compaction keep the log-management machinery (rolls, rewrites,
// reclaim) in play underneath the injected faults.
func durabilityCampaign(opts Options, seed int64) (DurabilityCell, error) {
	cp := campaign{
		seed: seed, requests: opts.campaignRequests(140, 40),
		nodes: 3, keys: 96, seedPer: 16, maintain: 20,
		wal:   &walengine.Options{SegmentBytes: 128 << 10, CompactGarbageBytes: 256 << 10},
		kills: opts.campaignKills(1), storageCrashes: 2,
	}
	r, err := runCampaign(opts, cp)
	if err != nil {
		return DurabilityCell{}, err
	}
	return DurabilityCell{
		Scenario: "campaign", Seed: seed, Requests: cp.requests,
		Committed: r.runs.Commits, Redos: r.runs.Redos, CommitRetries: r.runs.CommitRetries,
		StorageCrashes: r.storageCrashes, Kills: r.kills, Promotions: r.promotions,
		InjectedErrors: r.faults.Errors, PartialBatchPuts: r.faults.PartialBatchPuts,
		RecoveredRecords: r.recovered, Verdict: &r.verdict,
		Appends: r.wal.Appends, Fsyncs: r.wal.Fsyncs, AppendsPerFsync: r.wal.AppendsPerFsync,
		Compactions: r.wal.Compactions, BytesReclaimed: r.wal.BytesReclaimed,
	}, nil
}
