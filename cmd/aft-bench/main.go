// Command aft-bench regenerates the paper's evaluation tables and figures
// (§6) against the simulated substrates, plus the repo's own fault,
// durability, observability and recovery campaigns.
//
// Usage:
//
//	aft-bench -experiment all                 # every figure and table
//	aft-bench -experiment fig3 -scale 0.1     # one experiment, 10x speed
//	aft-bench -experiment fig7 -quick         # CI-sized run
//	aft-bench chaos -seed 7                   # alias: seeded fault-injection campaign
//	aft-bench -experiment chaos -seed 7 -chaos-kills 3 -chaos-error-rate 0.05
//	aft-bench durability                      # WAL engine: fsync coalescing, recovery, storage-crash campaign
//	aft-bench resilience -quick -scale 0      # network partitions + overload survival, CI-sized
//	aft-bench -experiment fig7 -store wal     # any experiment over any backend
//
// Experiments: fig2, fig3 (includes table2), fig4, fig5, fig6, fig7, fig8,
// fig9, fig10, ablation, chaos, durability, obsplane (full
// observability plane vs telemetry off), resilience (network partitions,
// conn resets, and overload through the real wire stack), recovery (WAL
// checkpoints vs full replay, and a crash campaign over the checkpointing
// WAL).
// With -debug-addr set, a side HTTP listener serves /statz and the
// /debug/pprof/ profiler suite for the duration of the run.
// The -store flag overrides the storage backend every experiment builds
// (dynamodb|s3|redis|wal; default: each experiment's own choice). Output
// latencies and throughputs are
// reported in paper-equivalent units (measured values divided by the time
// scale).
//
// Every run also writes machine-readable results to BENCH_<name>.json in
// the -json directory ("" disables): the rendered tables plus, for the
// experiments that expose them (chaos and everything after it in the list
// above), the raw per-cell measurements.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"aft/aft"
	"aft/internal/experiments"
)

// benchResult is the BENCH_<name>.json schema.
type benchResult struct {
	Experiment      string                       `json:"experiment"`
	Scale           float64                      `json:"scale"`
	Quick           bool                         `json:"quick"`
	Seed            int64                        `json:"seed"`
	Payload         int                          `json:"payload"`
	WallTimeMS      int64                        `json:"wall_time_ms"`
	Store           string                       `json:"store,omitempty"`
	Tables          []experiments.Table          `json:"tables"`
	ChaosCells      []experiments.ChaosCell      `json:"chaos_cells,omitempty"`
	DurabilityCells []experiments.DurabilityCell `json:"durability_cells,omitempty"`
	ObsPlaneCells   []experiments.ObsPlaneCell   `json:"obsplane_cells,omitempty"`
	ResilienceCells []experiments.ResilienceCell `json:"resilience_cells,omitempty"`
	RecoveryCells   []experiments.RecoveryCell   `json:"recovery_cells,omitempty"`
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run: all|fig2|fig3|table2|fig4|fig5|fig6|fig7|fig8|fig9|fig10|ablation|chaos|durability|obsplane|resilience|recovery")
		scale      = flag.Float64("scale", 0.1, "latency time scale: 1.0 = paper speed, 0.1 = 10x faster, 0 = no latency")
		quick      = flag.Bool("quick", false, "shrink workloads ~10x")
		seed       = flag.Int64("seed", 42, "random seed")
		payload    = flag.Int("payload", 4096, "value size in bytes")
		backend    = flag.String("store", "", "storage backend override for every experiment: dynamodb|s3|redis|wal; empty keeps each experiment's default")
		jsonDir    = flag.String("json", ".", "directory for BENCH_<name>.json results; empty disables")
		debug      = flag.String("debug-addr", "", "HTTP address for /statz and /debug/pprof/* during the run (empty disables)")

		chaosErrRate     = flag.Float64("chaos-error-rate", 0, "chaos: transient-failure probability per storage op; 0 = default")
		chaosPartialRate = flag.Float64("chaos-partial-rate", 0, "chaos: partial-batch-failure probability per batch op; 0 = default")
		chaosSpikeRate   = flag.Float64("chaos-spike-rate", 0, "chaos: latency-spike probability per storage op; 0 = default")
		chaosKills       = flag.Int("chaos-kills", 0, "chaos: node kills scheduled per campaign; 0 = default")
		chaosRequests    = flag.Int("chaos-requests", 0, "chaos: requests per campaign; 0 = default")
	)
	// Allow "aft-bench chaos -seed 7"-style invocation: a leading bare
	// word selects the experiment.
	args := os.Args[1:]
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		if err := flag.CommandLine.Parse(args[1:]); err != nil {
			os.Exit(2)
		}
		*experiment = args[0]
	} else {
		flag.Parse()
	}

	switch *backend {
	case "", "dynamodb", "s3", "redis", "wal":
	default:
		fmt.Fprintf(os.Stderr, "aft-bench: unknown store %q\n", *backend)
		os.Exit(2)
	}
	if *debug != "" {
		// Experiments build their nodes internally, so the registry here
		// carries only the process-level /statz runtime section — the point
		// of the endpoint is profiling long runs with /debug/pprof/.
		go func() {
			mux := aft.DebugMux("aft-bench", aft.NewMetricsRegistry(), nil)
			if err := http.ListenAndServe(*debug, mux); err != nil {
				fmt.Fprintf(os.Stderr, "aft-bench: debug endpoint: %v\n", err)
			}
		}()
		fmt.Printf("debug endpoint (statz, pprof) on %s\n", *debug)
	}
	// Reclaim -store wal log directories even when an experiment panics
	// (os.Exit paths call it explicitly — deferred functions don't run
	// there).
	defer experiments.CleanupTempStores()
	opts := experiments.Options{
		Scale: *scale, Quick: *quick, Seed: *seed, Payload: *payload,
		Backend:        *backend,
		ChaosErrorRate: *chaosErrRate, ChaosPartialRate: *chaosPartialRate,
		ChaosSpikeRate: *chaosSpikeRate, ChaosKills: *chaosKills,
		ChaosRequests: *chaosRequests,
	}

	all := []exp{
		{"fig2", tables(experiments.Fig2)},
		{"fig3", func(o experiments.Options, res *benchResult) error {
			a, b, err := experiments.Fig3Table2(o)
			res.Tables = []experiments.Table{a, b}
			return err
		}},
		{"fig4", tables(experiments.Fig4)},
		{"fig5", tables(experiments.Fig5)},
		{"fig6", tables(experiments.Fig6)},
		{"fig7", tables(experiments.Fig7)},
		{"fig8", tables(experiments.Fig8)},
		{"fig9", tables(experiments.Fig9)},
		{"fig10", tables(experiments.Fig10)},
		{"ablation", tables(experiments.Ablation)},
		{"chaos", cells(experiments.ChaosCells, experiments.ChaosTable,
			func(r *benchResult) *[]experiments.ChaosCell { return &r.ChaosCells })},
		{"durability", cells(experiments.DurabilityCells, experiments.DurabilityTable,
			func(r *benchResult) *[]experiments.DurabilityCell { return &r.DurabilityCells })},
		{"obsplane", cells(experiments.ObsPlaneCells, experiments.ObsPlaneTable,
			func(r *benchResult) *[]experiments.ObsPlaneCell { return &r.ObsPlaneCells })},
		{"resilience", cells(experiments.ResilienceCells, experiments.ResilienceTable,
			func(r *benchResult) *[]experiments.ResilienceCell { return &r.ResilienceCells })},
		{"recovery", cells(experiments.RecoveryCells, experiments.RecoveryTable,
			func(r *benchResult) *[]experiments.RecoveryCell { return &r.RecoveryCells })},
	}

	selected := map[string]bool{}
	switch *experiment {
	case "all":
		for _, e := range all {
			selected[e.name] = true
		}
	case "table2":
		selected["fig3"] = true
	default:
		selected[*experiment] = true
	}

	ran := false
	for _, e := range all {
		if !selected[e.name] {
			continue
		}
		ran = true
		fmt.Printf("running %s (scale=%.2g quick=%v)...\n", e.name, *scale, *quick)
		start := time.Now()
		res := benchResult{
			Experiment: e.name, Scale: *scale, Quick: *quick,
			Seed: *seed, Payload: *payload, Store: *backend,
		}
		if err := e.run(opts, &res); err != nil {
			fmt.Fprintf(os.Stderr, "aft-bench: %s: %v\n", e.name, err)
			experiments.CleanupTempStores()
			os.Exit(1)
		}
		// The chaos and resilience campaigns' contract is bit-for-bit
		// determinism per seed (resilience quarantines its wall-clock
		// numbers in each cell's `measured` block); wall time would be
		// one more nondeterministic field, so it is omitted from those
		// experiments' output and JSON.
		deterministic := e.name == "chaos" || e.name == "resilience"
		if !deterministic {
			res.WallTimeMS = time.Since(start).Milliseconds()
		}
		for _, t := range res.Tables {
			t.Print(os.Stdout)
		}
		if !deterministic {
			fmt.Printf("  (%s wall time)\n", time.Since(start).Round(time.Millisecond))
		}
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "BENCH_"+e.name+".json")
			if err := writeJSON(path, res); err != nil {
				fmt.Fprintf(os.Stderr, "aft-bench: writing %s: %v\n", path, err)
				experiments.CleanupTempStores()
				os.Exit(1)
			}
			fmt.Printf("  wrote %s\n", path)
		}
	}
	experiments.CleanupTempStores()
	if !ran {
		fmt.Fprintf(os.Stderr, "aft-bench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// exp is one experiment: run fills res.Tables and, for experiments that
// expose raw cells, their benchResult field.
type exp struct {
	name string
	run  func(experiments.Options, *benchResult) error
}

// tables adapts an experiment that only renders one table.
func tables(f func(experiments.Options) (experiments.Table, error)) func(experiments.Options, *benchResult) error {
	return func(o experiments.Options, res *benchResult) error {
		t, err := f(o)
		res.Tables = []experiments.Table{t}
		return err
	}
}

// cells adapts an experiment that exposes raw cells: it runs once, stores
// the cells in their benchResult field, and renders the table from them.
func cells[T any](
	run func(experiments.Options) ([]T, error),
	table func([]T) (experiments.Table, error),
	field func(*benchResult) *[]T,
) func(experiments.Options, *benchResult) error {
	return func(o experiments.Options, res *benchResult) error {
		cs, err := run(o)
		if err != nil {
			return err
		}
		*field(res) = cs
		t, err := table(cs)
		res.Tables = []experiments.Table{t}
		return err
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
