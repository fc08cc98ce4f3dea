// Command benchmark is the repository's one performance benchmark: it
// builds a deployment through the public aft API, drives it closed-loop
// from scripts generated from -seed, checks what came back, and prints
// every metric by name. See README.md.
//
//	go run . -workload wire_rw_mem -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. With -trace 0 the metrics are the gated end-to-end ones;
// with -trace 1 they are the per-layer ones, and the spans behind them are
// written to <out>/trace-<workload>.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (required); -list prints them")
		seed    = flag.Int64("seed", 1, "seed the scripts and latency models are generated from")
		seconds = flag.Float64("seconds", 20, "measured time, split evenly over the repetitions")
		trace   = flag.Int("trace", 0, "1 runs the traced repetition and reports per-layer metrics")
		outDir  = flag.String("out", "benchmark/out", "directory for trace files and on-disk engines")
		list    = flag.Bool("list", false, "print the workload names and exit")
	)
	flag.Parse()
	if *list {
		for _, w := range workloads {
			fmt.Println(w.name)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (try -list)\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		os.Exit(2)
	}
	opt := options{
		w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *outDir,
		setups: gatedSetups, reps: gatedReps, log: os.Stdout,
	}
	out, err := run(opt)
	if out != nil {
		if perr := printOutcome(os.Stdout, opt, out); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

// run executes one invocation: the traced run or the gated one.
func run(opt options) (*outcome, error) {
	if opt.trace {
		return runTraced(opt)
	}
	return runGated(opt)
}

// reported returns the metric definitions an invocation must print.
func reported(opt options) []metricDef {
	if opt.trace {
		return perLayerMetrics
	}
	return endToEndMetrics
}

// printOutcome writes one readable line per metric, then the result object
// as the last line.
func printOutcome(w io.Writer, opt options, out *outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct, out.attempted, out.failed, map[string]value{}}
	for _, def := range reported(opt) {
		v, ok := out.metrics[def.name]
		if !ok {
			continue // the run failed before measuring it
		}
		fmt.Fprintf(w, "%-40s %14.4f %-6s samples=%d\n", def.name, v, def.unit, out.samples[def.name])
		result.Metrics[def.name] = value{v, def.unit}
	}
	fmt.Fprintf(w, "# %s seed=%d attempted=%d failed=%d correct=%v\n",
		opt.w.name, opt.seed, out.attempted, out.failed, out.correct)
	if out.traceFile != "" {
		fmt.Fprintf(w, "# trace written to %s\n", out.traceFile)
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
