package experiments

import "testing"

// TestDurabilityCampaignCleanAcrossSeeds locks in the durability
// experiment's acceptance bar: across three seeds, each campaign fires at
// least one mid-run Close-then-Reopen storage crash (plus a node kill with
// standby promotion) and the history checker reports zero anomalies — no
// acknowledged commit may vanish across a storage-engine crash — and the
// concurrent-load throughput cell shows the group-fsync window coalescing
// (AppendsPerFsync > 1). Each campaign run again yields the same cell.
func TestDurabilityCampaignCleanAcrossSeeds(t *testing.T) {
	opts := Options{Scale: 0, Quick: true, Seed: 42, Payload: 256}
	cells, err := DurabilityCells(opts)
	if err != nil {
		t.Fatal(err)
	}

	var campaigns, recoveries int
	var campaignCells []DurabilityCell
	var walThroughput *DurabilityCell
	for i := range cells {
		cell := &cells[i]
		switch cell.Scenario {
		case "throughput":
			if cell.Engine == "wal" {
				walThroughput = cell
			}
		case "recovery":
			recoveries++
			if cell.ReplayedRecords < int64(cell.Entries) {
				t.Errorf("recovery of %d entries replayed only %d records",
					cell.Entries, cell.ReplayedRecords)
			}
			if cell.Segments < 2 {
				t.Errorf("recovery log for %d entries spans %d segments, want >= 2",
					cell.Entries, cell.Segments)
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
			if cell.StorageCrashes < 1 {
				t.Errorf("seed %d: no storage crash fired", cell.Seed)
			}
			if cell.Kills < 1 || cell.Promotions != cell.Kills {
				t.Errorf("seed %d: kills=%d promotions=%d", cell.Seed, cell.Kills, cell.Promotions)
			}
			if cell.Committed < int64(cell.Requests) {
				t.Errorf("seed %d: committed %d < %d requests", cell.Seed, cell.Committed, cell.Requests)
			}
			if cell.AppendsPerFsync <= 1 {
				t.Errorf("seed %d: campaign AppendsPerFsync = %.2f, want > 1",
					cell.Seed, cell.AppendsPerFsync)
			}
			if cell.Verdict != nil && (cell.Verdict.FinalKeys == 0 || cell.Verdict.Reads == 0) {
				t.Errorf("seed %d: checker saw no history", cell.Seed)
			}
		}
	}
	if campaigns != 3 {
		t.Fatalf("got %d campaign cells, want 3", campaigns)
	}
	if recoveries != 3 {
		t.Fatalf("got %d recovery cells, want 3", recoveries)
	}
	requireSameRerun(t, campaignCells, func(i int) (DurabilityCell, error) {
		return durabilityCampaign(opts, opts.Seed+int64(i))
	})
	if walThroughput == nil {
		t.Fatal("no wal throughput cell")
	}
	// Point-write coalescing depends on goroutines actually overlapping;
	// on a loaded single-CPU host a quick-mode writer can finish inside
	// one scheduler timeslice, so the hard >1 bar lives on the campaign
	// cells (whose BatchPut appends coalesce regardless of scheduling).
	// Here: every append was fsync-acknowledged and never more than once.
	if walThroughput.Fsyncs <= 0 || walThroughput.Fsyncs > walThroughput.Appends {
		t.Fatalf("throughput fsyncs = %d for %d appends", walThroughput.Fsyncs, walThroughput.Appends)
	}

	tbl, err := DurabilityTable(cells)
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, tbl, len(cells))
}
