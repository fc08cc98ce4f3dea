// Command aft-bench regenerates the paper's evaluation tables and figures
// (§6) against the simulated substrates, plus the repo's own scaling
// scenarios (sharded metadata exchange).
//
// Usage:
//
//	aft-bench -experiment all                 # every figure and table
//	aft-bench -experiment fig3 -scale 0.1     # one experiment, 10x speed
//	aft-bench -experiment fig7 -quick         # CI-sized run
//	aft-bench -experiment sharded -json out/  # broadcast vs sharded exchange
//	aft-bench chaos -seed 7                   # alias: seeded fault-injection campaign
//	aft-bench -experiment chaos -seed 7 -chaos-kills 3 -chaos-error-rate 0.05
//	aft-bench durability                      # WAL engine: fsync coalescing, recovery, storage-crash campaign
//	aft-bench resilience -quick -scale 0      # network partitions + overload survival, CI-sized
//	aft-bench -experiment fig7 -store wal     # any experiment over any backend
//
// Experiments: fig2, fig3 (includes table2), fig4, fig5, fig6, fig7, fig8,
// fig9, fig10, ablation, sharded, parallel, readpath, chaos, durability,
// telemetry (instrumentation-overhead comparison), resilience (network
// partitions, conn resets, and overload through the real wire stack),
// recovery (WAL checkpoints vs full replay, incremental bootstrap,
// metadata-budget spill, and a crash campaign over all three).
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
// sharded and parallel experiments, the raw per-cell measurements
// (throughput, p50/p99 latency, and per-cell scaling/coalescing detail).
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
	ShardedCells    []experiments.ShardedCell    `json:"sharded_cells,omitempty"`
	ParallelCells   []experiments.ParallelCell   `json:"parallel_cells,omitempty"`
	ReadPathCells   []experiments.ReadPathCell   `json:"readpath_cells,omitempty"`
	ChaosCells      []experiments.ChaosCell      `json:"chaos_cells,omitempty"`
	DurabilityCells []experiments.DurabilityCell `json:"durability_cells,omitempty"`
	TelemetryCells  []experiments.TelemetryCell  `json:"telemetry_cells,omitempty"`
	ObsPlaneCells   []experiments.ObsPlaneCell   `json:"obsplane_cells,omitempty"`
	ResilienceCells []experiments.ResilienceCell `json:"resilience_cells,omitempty"`
	RecoveryCells   []experiments.RecoveryCell   `json:"recovery_cells,omitempty"`
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run: all|fig2|fig3|table2|fig4|fig5|fig6|fig7|fig8|fig9|fig10|ablation|sharded|parallel|readpath|chaos|durability|telemetry|obsplane|resilience|recovery")
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

	type exp struct {
		name string
		run  func(experiments.Options) ([]experiments.Table, error)
	}
	one := func(f func(experiments.Options) (experiments.Table, error)) func(experiments.Options) ([]experiments.Table, error) {
		return func(o experiments.Options) ([]experiments.Table, error) {
			t, err := f(o)
			return []experiments.Table{t}, err
		}
	}
	fig3 := func(o experiments.Options) ([]experiments.Table, error) {
		a, b, err := experiments.Fig3Table2(o)
		return []experiments.Table{a, b}, err
	}
	all := []exp{
		{"fig2", one(experiments.Fig2)},
		{"fig3", fig3},
		{"fig4", one(experiments.Fig4)},
		{"fig5", one(experiments.Fig5)},
		{"fig6", one(experiments.Fig6)},
		{"fig7", one(experiments.Fig7)},
		{"fig8", one(experiments.Fig8)},
		{"fig9", one(experiments.Fig9)},
		{"fig10", one(experiments.Fig10)},
		{"ablation", one(experiments.Ablation)},
		{"sharded", one(experiments.Sharded)},
		{"parallel", one(experiments.Parallel)},
		{"readpath", one(experiments.ReadPath)},
		{"chaos", one(experiments.Chaos)},
		{"durability", one(experiments.Durability)},
		{"telemetry", one(experiments.Telemetry)},
		{"obsplane", one(experiments.ObsPlane)},
		{"resilience", one(experiments.Resilience)},
		{"recovery", one(experiments.Recovery)},
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
		var err error
		switch e.name {
		case "sharded":
			// The sharded and parallel experiments expose raw cells;
			// render the table from them so the run happens once.
			res.ShardedCells, err = experiments.ShardedCells(opts)
			if err == nil {
				var t experiments.Table
				t, err = experiments.ShardedTable(res.ShardedCells)
				res.Tables = []experiments.Table{t}
			}
		case "parallel":
			res.ParallelCells, err = experiments.ParallelCells(opts)
			if err == nil {
				var t experiments.Table
				t, err = experiments.ParallelTable(res.ParallelCells)
				res.Tables = []experiments.Table{t}
			}
		case "readpath":
			res.ReadPathCells, err = experiments.ReadPathCells(opts)
			if err == nil {
				var t experiments.Table
				t, err = experiments.ReadPathTable(res.ReadPathCells)
				res.Tables = []experiments.Table{t}
			}
		case "chaos":
			res.ChaosCells, err = experiments.ChaosCells(opts)
			if err == nil {
				var t experiments.Table
				t, err = experiments.ChaosTable(res.ChaosCells)
				res.Tables = []experiments.Table{t}
			}
		case "durability":
			res.DurabilityCells, err = experiments.DurabilityCells(opts)
			if err == nil {
				var t experiments.Table
				t, err = experiments.DurabilityTable(res.DurabilityCells)
				res.Tables = []experiments.Table{t}
			}
		case "telemetry":
			res.TelemetryCells, err = experiments.TelemetryCells(opts)
			if err == nil {
				var t experiments.Table
				t, err = experiments.TelemetryTable(res.TelemetryCells)
				res.Tables = []experiments.Table{t}
			}
		case "obsplane":
			res.ObsPlaneCells, err = experiments.ObsPlaneCells(opts)
			if err == nil {
				var t experiments.Table
				t, err = experiments.ObsPlaneTable(res.ObsPlaneCells)
				res.Tables = []experiments.Table{t}
			}
		case "resilience":
			res.ResilienceCells, err = experiments.ResilienceCells(opts)
			if err == nil {
				var t experiments.Table
				t, err = experiments.ResilienceTable(res.ResilienceCells)
				res.Tables = []experiments.Table{t}
			}
		case "recovery":
			res.RecoveryCells, err = experiments.RecoveryCells(opts)
			if err == nil {
				var t experiments.Table
				t, err = experiments.RecoveryTable(res.RecoveryCells)
				res.Tables = []experiments.Table{t}
			}
		default:
			res.Tables, err = e.run(opts)
		}
		if err != nil {
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

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
