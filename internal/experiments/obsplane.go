package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aft/internal/core"
	"aft/internal/stats"
	"aft/internal/storage/kvengine"
	"aft/internal/telemetry"
	"aft/internal/workload"
)

// ObsPlaneCell is one instrumentation mode's measurement.
type ObsPlaneCell struct {
	Mode          string  `json:"mode"` // "off" | "obsplane"
	Txns          int     `json:"txns"`
	Workers       int     `json:"workers"`
	ThroughputTPS float64 `json:"throughput_tps"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	// RelativeThroughput is this mode's throughput over the "off"
	// baseline's (1.0 = free instrumentation; the gate is >= 0.90).
	RelativeThroughput float64 `json:"relative_throughput"`
	// Plane volume, instrumented mode only: evidence the measured pass
	// actually exercised the whole plane.
	TracesForwarded uint64            `json:"traces_forwarded,omitempty"`
	StitchedTraces  int               `json:"stitched_traces,omitempty"`
	EventsRecorded  uint64            `json:"events_recorded,omitempty"`
	SLOVerdicts     map[string]string `json:"slo_verdicts,omitempty"`
}

// ObsPlaneCells measures what the FULL observability plane costs on the
// hot path: a commit-heavy workload runs once with telemetry disabled
// (Config.DisableTelemetry, no tracer) and once under the complete
// cmd/aft-server production plane — latency histograms, a 1-in-64
// self-sampling tracer forwarding every kept trace to a cluster
// TraceCollector, the flight-recorder event journal, and a ticking SLO
// burn-rate engine. The instrumented mode must hold at least ~90% of the
// uninstrumented throughput (the BENCH json records the measured ratio);
// the run also proves the plane carries real data by recording how many
// stitched traces, forwarded segments, and journal events the pass
// produced and what the SLO engine concluded about it.
//
// The run uses the zero-latency simulated backend deliberately: with no
// storage waits to hide behind, every instrumentation cycle lands on the
// measured path, so the ratio is an upper bound on the overhead a real
// deployment sees.
//
// The timed passes are interleaved (off pass 1, obsplane pass 1, off pass
// 2, ...) and each mode keeps its best pass, so process-level drift —
// allocator growth, background GC — lands on both modes evenly. Every
// pass runs on a FRESH node over a fresh backend: without the maintenance
// pipeline nothing prunes commit metadata, so a long-lived node's reads
// slow down with accumulated versions and the drift would drown the
// instrumentation signal.
func ObsPlaneCells(opts Options) ([]ObsPlaneCell, error) {
	opts = opts.withDefaults()
	txns := opts.scaled(12000)
	const workers = 8
	const reps = 3

	keys := workload.NewZipf(opts.Seed, 512, 1.1)
	keysOf := make([][]string, txns)
	for i := range keysOf {
		keysOf[i] = []string{keys.Next(), keys.Next()}
	}
	payload := workload.Payload(opts.Seed, opts.Payload)

	runs := []*obsplaneRun{{mode: "off"}, {mode: "obsplane"}}
	// One discarded warm-up pass per mode, then interleaved timed passes.
	for _, r := range runs {
		if err := r.pass(keysOf, payload, workers); err != nil {
			return nil, err
		}
	}
	for _, r := range runs {
		r.bestTPS = 0
	}
	for rep := 0; rep < reps; rep++ {
		for _, r := range runs {
			if err := r.pass(keysOf, payload, workers); err != nil {
				return nil, err
			}
		}
	}

	cells := make([]ObsPlaneCell, 0, len(runs))
	for _, r := range runs {
		cell := ObsPlaneCell{
			Mode: r.mode, Txns: txns, Workers: workers,
			ThroughputTPS: r.bestTPS,
			P50Ms:         stats.Millis(r.bestSum.Median),
			P99Ms:         stats.Millis(r.bestSum.P99),
		}
		if r.mode == "obsplane" && r.bestPlane != nil {
			p := r.bestPlane
			cell.TracesForwarded, _, _ = p.collector.Stats()
			cell.StitchedTraces = len(p.collector.Snapshot())
			cell.EventsRecorded, _ = p.events.Stats()
			p.slo.Tick()
			cell.SLOVerdicts = map[string]string{}
			for _, oh := range p.slo.Evaluate() {
				cell.SLOVerdicts[oh.Name] = oh.Verdict
			}
		}
		cells = append(cells, cell)
	}
	base := cells[0].ThroughputTPS
	for i := range cells {
		if base > 0 {
			cells[i].RelativeThroughput = cells[i].ThroughputTPS / base
		}
	}
	return cells, nil
}

// obsplane bundles one pass's full observability plane.
type obsplane struct {
	tracer    *telemetry.Tracer
	collector *telemetry.TraceCollector
	events    *telemetry.Journal
	slo       *telemetry.SLOEngine
}

// obsplaneRun is one mode plus its best pass so far.
type obsplaneRun struct {
	mode      string
	bestTPS   float64
	bestSum   stats.Summary
	bestPlane *obsplane
}

// pass builds a fresh node (with or without the plane), drives one
// timed pass, and keeps the result if it beats the run's best.
func (r *obsplaneRun) pass(keysOf [][]string, payload []byte, workers int) error {
	cfg := core.Config{
		NodeID:          "obsplane-" + r.mode,
		Store:           kvengine.NewDynamoDB(kvengine.Options{}),
		EnableDataCache: true,
	}
	var plane *obsplane
	switch r.mode {
	case "off":
		cfg.DisableTelemetry = true
	case "obsplane":
		plane = &obsplane{
			collector: telemetry.NewTraceCollector(0),
			events:    telemetry.NewJournal(telemetry.JournalOptions{}),
			slo:       telemetry.NewSLOEngine(telemetry.SLOOptions{}),
		}
		plane.tracer = telemetry.NewTracer(telemetry.TracerOptions{
			Node: cfg.NodeID, SampleEvery: 64,
		})
		plane.tracer.SetSink(plane.collector)
		cfg.Tracer = plane.tracer
		cfg.Events = plane.events
	default:
		return fmt.Errorf("obsplane: unknown mode %q", r.mode)
	}
	node, err := core.NewNode(cfg)
	if err != nil {
		return err
	}
	if plane != nil {
		plane.slo.AddObjective(telemetry.Objective{
			Name: "commit_latency", Target: 0.99,
			SLI: telemetry.LatencySLI(node.CommitLatency, 250*time.Millisecond),
		})
		m := node.Metrics()
		plane.slo.AddObjective(telemetry.Objective{
			Name: "shed_ratio", Target: 0.99,
			SLI: telemetry.RatioSLI(
				func() uint64 { return uint64(m.OverloadShed.Load()) },
				func() uint64 { return uint64(m.Started.Load() + m.OverloadShed.Load()) },
			),
		})
		// The engine samples off the hot path in production (Run); here
		// it ticks around the pass so Evaluate has a window to grade.
		plane.slo.Tick()
	}
	tps, sum, err := telemetryPass(node, keysOf, payload, workers)
	if err != nil {
		return err
	}
	if tps > r.bestTPS {
		r.bestTPS, r.bestSum, r.bestPlane = tps, sum, plane
	}
	return nil
}

// telemetryPass drives every transaction in keysOf once, strided across
// workers (len(keysOf) is a multiple of workers), and returns the pass's
// throughput and latency summary. Per-commit latency is measured with the
// same external recorder in every mode, so recorder overhead cancels out
// of the comparison.
func telemetryPass(node *core.Node, keysOf [][]string, payload []byte, workers int) (float64, stats.Summary, error) {
	ctx := context.Background()
	start := time.Now()
	rec, err := runClients(workers, len(keysOf)/workers, func(w, i int) error {
		return runTelemetryTxn(ctx, node, keysOf[i*workers+w], payload)
	})
	if err != nil {
		return 0, stats.Summary{}, err
	}
	return float64(len(keysOf)) / time.Since(start).Seconds(), rec.Summarize(), nil
}

// runTelemetryTxn is one workload transaction: read two keys (one
// MultiGet), write both, commit.
func runTelemetryTxn(ctx context.Context, node *core.Node, keys []string, payload []byte) error {
	txid, err := node.StartTransaction(ctx)
	if err != nil {
		return err
	}
	if _, err := node.MultiGet(ctx, txid, keys); err != nil &&
		!errors.Is(err, core.ErrKeyNotFound) {
		node.AbortTransaction(ctx, txid)
		return err
	}
	for _, k := range keys {
		if err := node.Put(ctx, txid, k, payload); err != nil {
			node.AbortTransaction(ctx, txid)
			return err
		}
	}
	_, err = node.CommitTransaction(ctx, txid)
	return err
}

// ObsPlaneTable renders the overhead comparison.
func ObsPlaneTable(cells []ObsPlaneCell) (Table, error) {
	t := Table{
		Title:  "Observability plane overhead: full plane vs telemetry off",
		Header: []string{"mode", "txns", "tps", "p50 (ms)", "p99 (ms)", "vs off", "stitched", "events"},
		Notes: []string{
			"obsplane = histograms + 1-in-64 tracing + collector stitching + event journal + SLO engine",
			"zero-latency backend: upper-bound overhead; the gate is vs-off >= 0.90",
		},
	}
	for _, c := range cells {
		stitched, events := "-", "-"
		if c.Mode == "obsplane" {
			stitched = fmt.Sprintf("%d", c.StitchedTraces)
			events = fmt.Sprintf("%d", c.EventsRecorded)
		}
		t.Rows = append(t.Rows, []string{
			c.Mode,
			fmt.Sprintf("%d", c.Txns),
			fmt.Sprintf("%.0f", c.ThroughputTPS),
			fmt.Sprintf("%.3f", c.P50Ms),
			fmt.Sprintf("%.3f", c.P99Ms),
			fmt.Sprintf("%.3f", c.RelativeThroughput),
			stitched,
			events,
		})
	}
	return t, nil
}
