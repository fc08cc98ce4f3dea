package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// smokeOptions shrinks a workload to a fraction of a second: few keys, a
// short warm-up, one set-up, one repetition.
func smokeOptions(t *testing.T, w workload, trace bool) options {
	w.keys = min(w.keys, 600)
	w.warmTxns = 64
	opt := options{
		w: w, seed: 7, seconds: 0.3, trace: trace, outDir: t.TempDir(),
		setups: 1, reps: 1, log: &bytes.Buffer{},
	}
	if trace {
		opt.seconds = 0.3 * traceSlots
	}
	return opt
}

// checkOutcome asserts the outcome is correct and carries every metric the
// invocation must report, finite, and that the printed result line has
// exactly the contract's keys with each metric's unit.
func checkOutcome(t *testing.T, opt options, out *outcome) {
	t.Helper()
	if !out.correct || out.failed != 0 || out.attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", out.correct, out.attempted, out.failed)
	}
	var buf bytes.Buffer
	if err := printOutcome(&buf, opt, out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var result map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(result) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", result)
	}
	var metrics map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(result["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	want := reported(opt)
	if len(metrics) != len(want) {
		t.Errorf("printed %d metrics, want %d", len(metrics), len(want))
	}
	for _, def := range want {
		m, ok := metrics[def.name]
		switch {
		case !ok || m.Value == nil:
			t.Errorf("%s: missing", def.name)
		case math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
			t.Errorf("%s: not finite: %v", def.name, *m.Value)
		case m.Unit != def.unit:
			t.Errorf("%s: unit %q, want %q", def.name, m.Unit, def.unit)
		}
	}
}

func TestSmokeGated(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := smokeOptions(t, w, false)
			out, err := run(opt)
			if err != nil {
				t.Fatalf("%v\n%s", err, opt.log)
			}
			checkOutcome(t, opt, out)
			for _, def := range endToEndMetrics {
				if out.metrics[def.name] <= 0 {
					t.Errorf("%s = %v, want > 0", def.name, out.metrics[def.name])
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := smokeOptions(t, w, true)
			out, err := run(opt)
			if err != nil {
				t.Fatalf("%v\n%s", err, opt.log)
			}
			checkOutcome(t, opt, out)
			// Layers the workload has must have been seen working.
			mustWork := []string{"op.start_us_p50", "op.commit_us_p50", "storage.calls_per_txn", "proc.cpu_us_per_txn"}
			if w.overWire {
				mustWork = append(mustWork, "wire.rpcs_per_txn", "wire.ping_rtt_us_p50", "wire.vs_inproc_tps_ratio")
			}
			if w.onDisk {
				mustWork = append(mustWork, "wal.appends_per_fsync", "wal.reopen_s")
			}
			// multicast.* is not asserted: a 0.3 s repetition usually falls
			// between two rounds of the 1 s multicast period.
			for _, name := range mustWork {
				if out.metrics[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, out.metrics[name])
				}
			}
			checkTraceFile(t, out.traceFile)
		})
	}
}

// checkTraceFile asserts every line of the trace is a JSON span, that both
// client and storage spans are there, and that every client op names a
// client.txn span as its parent.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	txns := map[string]bool{}
	var parents []string
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			Name, ID, Parent string
			DurUs            *float64 `json:"dur_us"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		if s.DurUs == nil || *s.DurUs < 0 {
			t.Fatalf("span without a duration: %s", sc.Text())
		}
		names[s.Name]++
		if s.Name == "client.txn" {
			txns[s.ID] = true
		} else if strings.HasPrefix(s.Name, "client.") {
			parents = append(parents, s.Parent)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if names["client.txn"] == 0 || names["client.commit"] == 0 {
		t.Errorf("no client spans in %v", names)
	}
	storage := 0
	for name, n := range names {
		if strings.HasPrefix(name, "storage.") {
			storage += n
		}
	}
	if storage == 0 {
		t.Errorf("no storage spans in %v", names)
	}
	orphans := 0
	for _, p := range parents {
		if !txns[p] {
			orphans++
		}
	}
	// A full span buffer drops whichever span comes next, which can be a
	// parent; a tiny warm-up can undersize the buffers. More than a handful
	// of orphans is a bug in the txn numbering.
	if orphans > len(parents)/20 {
		t.Errorf("%d of %d client op spans have no client.txn parent", orphans, len(parents))
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the tables in
// metrics.go and deploy.go in step: same workloads, same metrics, same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, spec.Workloads[i].Name, w.name)
		}
	}
	compareMetrics(t, "end_to_end", spec.EndToEnd, endToEndMetrics)
	compareMetrics(t, "per_layer", spec.PerLayer, perLayerMetrics)
}

type metricJSON struct{ Name, Unit string }

func compareMetrics(t *testing.T, section string, got []metricJSON, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, code has %d", section, len(got), len(want))
	}
	for i, def := range want {
		if got[i].Name != def.name || got[i].Unit != def.unit {
			t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), code has %s (%s)",
				section, i, got[i].Name, got[i].Unit, def.name, def.unit)
		}
	}
}
