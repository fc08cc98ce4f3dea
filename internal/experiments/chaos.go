package experiments

import (
	"fmt"

	"aft/internal/checker"
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
// durability — or pinpointing where they broke. For a fixed seed the
// entire cell, verdict included, is bit-for-bit reproducible (see
// runCampaign).
//
// One campaign runs per seed (opts.Seed, +1, +2): the acceptance bar
// requires a zero-anomaly verdict across three seeds that each include at
// least one node kill and one partial batch-write failure.
func ChaosCells(opts Options) ([]ChaosCell, error) {
	opts = opts.withDefaults()
	var cells []ChaosCell
	for i := int64(0); i < 3; i++ {
		cell, err := chaosCampaign(opts, opts.Seed+i)
		if err != nil {
			return cells, fmt.Errorf("chaos seed %d: %w", opts.Seed+i, err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// chaosCampaign runs one seed's campaign over the DynamoDB profile, with a
// two-phase bulk write after every request and the event journal kept.
func chaosCampaign(opts Options, seed int64) (ChaosCell, error) {
	cp := campaign{
		seed: seed, requests: opts.campaignRequests(160, 48),
		nodes: 3, keys: 128, seedPer: 16, maintain: 20,
		kills: opts.campaignKills(2), bulkKeys: 24, journal: true,
	}
	r, err := runCampaign(opts, cp)
	if err != nil {
		return ChaosCell{}, err
	}
	return ChaosCell{
		Seed: seed, Requests: cp.requests, Keys: cp.keys,
		Committed: r.runs.Commits, Redos: r.runs.Redos, CommitRetries: r.runs.CommitRetries,
		Kills: r.kills, Promotions: r.promotions,
		StorageOps: r.faults.Ops, InjectedErrors: r.faults.Errors,
		PartialBatchPuts: r.faults.PartialBatchPuts, PartialBatchGets: r.faults.PartialBatchGets,
		Spikes: r.faults.Spikes, RecoveredRecords: r.recovered,
		Verdict: r.verdict, Journal: r.journal,
	}, nil
}
