package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// smokeOpts runs experiments with zero injected latency and minimal sizes:
// these tests validate harness plumbing, not paper numbers.
func smokeOpts() Options {
	return Options{Scale: 0, Quick: true, Seed: 7, Payload: 256}
}

func requireRows(t *testing.T, tbl Table, want int) {
	t.Helper()
	if len(tbl.Rows) != want {
		t.Fatalf("%s: %d rows, want %d", tbl.Title, len(tbl.Rows), want)
	}
	var buf bytes.Buffer
	tbl.Print(&buf)
	if !strings.Contains(buf.String(), tbl.Title) {
		t.Fatal("Print lost the title")
	}
}

// requireSameRerun runs each of first's campaigns again (rerun(i) for
// first[i]) and requires the same cells, serialized, as the first run.
func requireSameRerun[C any](t *testing.T, first []C, rerun func(i int) (C, error)) {
	t.Helper()
	second := make([]C, len(first))
	for i := range first {
		cell, err := rerun(i)
		if err != nil {
			t.Fatal(err)
		}
		second[i] = cell
	}
	a, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("campaign is not deterministic for a fixed seed:\nrun 1: %s\nrun 2: %s", a, b)
	}
}

func TestFig2Smoke(t *testing.T) {
	tbl, err := Fig2(smokeOpts())
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, tbl, 12) // 3 write counts x 4 configs
}

func TestFig3Table2Smoke(t *testing.T) {
	fig3, table2, err := Fig3Table2(smokeOpts())
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, fig3, 7)   // s3{plain,aft} dynamo{txn,plain,aft} redis{plain,aft}
	requireRows(t, table2, 5) // aft, s3, dynamo, dynamo-serializable, redis
	// AFT must report zero anomalies.
	for _, row := range table2.Rows {
		if row[0] == "aft" && (row[2] != "0" || row[3] != "0") {
			t.Fatalf("AFT anomalies in Table 2: %v", row)
		}
	}
}

func TestFig4Smoke(t *testing.T) {
	tbl, err := Fig4(smokeOpts())
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, tbl, 15) // 3 skews x 5 configs
}

func TestFig5Smoke(t *testing.T) {
	tbl, err := Fig5(smokeOpts())
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, tbl, 12) // 2 stores x 6 ratios
}

func TestFig6Smoke(t *testing.T) {
	tbl, err := Fig6(smokeOpts())
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, tbl, 12) // 2 stores x 6 lengths
}

func TestFig7Smoke(t *testing.T) {
	tbl, err := Fig7(smokeOpts())
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, tbl, 8) // 2 stores x 4 quick client counts
}

func TestFig8Smoke(t *testing.T) {
	tbl, err := Fig8(smokeOpts())
	if err != nil {
		t.Fatal(err)
	}
	requireRows(t, tbl, 6) // 2 stores x 3 quick node counts
}

func TestFig9Smoke(t *testing.T) {
	tbl, err := Fig9(smokeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestFig10Smoke(t *testing.T) {
	tbl, err := Fig10(smokeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	// The kill event must appear.
	var sawKill bool
	for _, row := range tbl.Rows {
		if strings.Contains(row[3], "killed") {
			sawKill = true
		}
	}
	if !sawKill {
		t.Fatal("kill event missing from timeline")
	}
}
