package experiments

import "testing"

// TestRecoveryCellsQuick locks in the recovery experiment's acceptance
// shape at quick scale: checkpointed reopens replay only the tail, and
// all three seeded chaos campaigns — three storage crashes each, node
// kills with standby promotion — come back with a zero-anomaly checker
// verdict and the same cells when run again. The >=10x speedup bar on the
// largest log is a full-scale property (BENCH_recovery.json); at quick
// scale the test asserts the structural invariants, not wall-clock ratios.
func TestRecoveryCellsQuick(t *testing.T) {
	opts := Options{Scale: 0, Quick: true, Seed: 42, Payload: 256}
	cells, err := RecoveryCells(opts)
	if err != nil {
		t.Fatal(err)
	}

	var recoveries, campaigns int
	var campaignCells []RecoveryCell
	for i := range cells {
		cell := &cells[i]
		switch cell.Scenario {
		case "recovery":
			recoveries++
			if cell.FullReplayMS <= 0 || cell.CheckpointedMS <= 0 {
				t.Errorf("%d entries: missing reopen timings (full %.3f, ckpt %.3f)",
					cell.Entries, cell.FullReplayMS, cell.CheckpointedMS)
			}
			if cell.CheckpointEntries != int64(cell.Keys) {
				t.Errorf("%d entries: checkpoint holds %d entries, want one per live key (%d)",
					cell.Entries, cell.CheckpointEntries, cell.Keys)
			}
			if cell.ReplayedTail > int64(2*cell.TailRecords) {
				t.Errorf("%d entries: checkpointed reopen replayed %d records, want ~%d tail",
					cell.Entries, cell.ReplayedTail, cell.TailRecords)
			}
		case "campaign":
			campaigns++
			campaignCells = append(campaignCells, *cell)
			if cell.Verdict == nil || !cell.Verdict.Clean() {
				t.Errorf("seed %d: verdict %v", cell.Seed, cell.Verdict)
				if cell.Verdict != nil {
					t.Logf("violations: %v", cell.Verdict.Violations)
				}
			}
			if cell.StorageCrashes < 3 {
				t.Errorf("seed %d: %d storage crashes, want >= 3", cell.Seed, cell.StorageCrashes)
			}
			if cell.Kills < 1 || cell.Promotions != cell.Kills {
				t.Errorf("seed %d: kills=%d promotions=%d", cell.Seed, cell.Kills, cell.Promotions)
			}
			if cell.Committed < int64(cell.Requests) {
				t.Errorf("seed %d: committed %d < %d requests", cell.Seed, cell.Committed, cell.Requests)
			}
			if cell.Checkpoints < 1 {
				t.Errorf("seed %d: WAL wrote no checkpoint", cell.Seed)
			}
			if cell.Verdict != nil && (cell.Verdict.FinalKeys == 0 || cell.Verdict.Reads == 0) {
				t.Errorf("seed %d: checker saw no history", cell.Seed)
			}
		}
	}
	if recoveries != 3 || campaigns != 3 {
		t.Fatalf("cell mix recovery=%d campaign=%d, want 3/3", recoveries, campaigns)
	}
	requireSameRerun(t, campaignCells, func(i int) (RecoveryCell, error) {
		return recoveryCampaign(opts, opts.Seed+int64(i))
	})

	tbl, err := RecoveryTable(cells)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, tbl, len(cells))
}
