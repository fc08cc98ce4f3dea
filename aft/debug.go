package aft

import (
	"context"
	"net/http"
	"net/http/pprof"

	"aft/internal/telemetry"
)

// Telemetry type aliases: the implementation lives in internal/telemetry;
// these are the supported public names.
type (
	// MetricsRegistry unifies every subsystem's counters behind one
	// Prometheus-format /metrics endpoint (and the JSON /statz view).
	MetricsRegistry = telemetry.Registry
	// Tracer retains per-transaction traces in a bounded ring, sampled
	// client-side, 1-in-N, or always when slow.
	Tracer = telemetry.Tracer
	// TracerOptions parameterizes a Tracer.
	TracerOptions = telemetry.TracerOptions
	// TraceRecord is one retained trace, as served by /traces.
	TraceRecord = telemetry.TraceRecord
	// TraceCollector merges trace segments forwarded by many nodes'
	// tracers into stitched cross-node traces, keyed by trace ID.
	TraceCollector = telemetry.TraceCollector
	// StitchedTrace is one merged multi-node trace, as served by the
	// collector-backed /traces endpoint.
	StitchedTrace = telemetry.StitchedTrace
	// EventJournal is the flight recorder: a bounded ring of typed
	// cluster events served by /events and dumped on panic/SIGQUIT.
	EventJournal = telemetry.Journal
	// Event is one flight-recorder entry.
	Event = telemetry.Event
	// SLOEngine evaluates windowed burn-rate objectives for /healthz.
	SLOEngine = telemetry.SLOEngine
	// SLOObjective is one /healthz objective (target + SLI).
	SLOObjective = telemetry.Objective
)

// NewMetricsRegistry returns a registry pre-loaded with the process's
// aft_build_info gauge and its Go runtime allocation and GC counters
// (aft_go_*); pass it to the RegisterTelemetry method of each component
// you deploy (Node, Cluster, stores, ...) and serve it with DebugMux.
func NewMetricsRegistry() *MetricsRegistry {
	reg := &telemetry.Registry{}
	telemetry.RegisterBuildInfo(reg)
	telemetry.RegisterRuntime(reg)
	return reg
}

// NewTraceCollector returns a trace collector retaining up to capacity
// stitched traces (<= 0 for the default). Wire it into
// ClusterConfig.TraceCollector (or set it as a standalone Tracer's sink
// via SetSink) and serve it through DebugOptions.Collector.
func NewTraceCollector(capacity int) *TraceCollector {
	return telemetry.NewTraceCollector(capacity)
}

// NewEventJournal returns a flight-recorder journal retaining up to
// capacity events (<= 0 for the default 4096). Wire it into
// NodeConfig.Events / ClusterConfig.Events and serve it through
// DebugOptions.Events.
func NewEventJournal(capacity int) *EventJournal {
	return telemetry.NewJournal(telemetry.JournalOptions{Capacity: capacity})
}

// NewSLOEngine returns a burn-rate engine with the default multi-window
// layout; add objectives with AddObjective, drive it with Run, and serve
// it through DebugOptions.Health.
func NewSLOEngine() *SLOEngine {
	return telemetry.NewSLOEngine(telemetry.SLOOptions{})
}

// NewTracer returns a Tracer; wire it into NodeConfig.Tracer and serve its
// retained traces with DebugMux.
func NewTracer(opts TracerOptions) *Tracer { return telemetry.NewTracer(opts) }

// Traced returns a context carrying a freshly minted, always-sampled trace
// context, plus the trace ID. A transaction started under the returned
// context is traced end to end — through the load balancer and the wire
// protocol — and retained by the serving node's tracer regardless of its
// sampling policy, so the trace ID can be looked up on that node's
// /traces endpoint.
func Traced(ctx context.Context) (context.Context, string) {
	id := telemetry.MintTraceID("client")
	return telemetry.WithTraceContext(ctx, telemetry.TraceContext{ID: id, Sampled: true}), id
}

// DebugMux assembles the standard observability endpoint set:
//
//	/metrics       Prometheus text exposition of reg
//	/statz         the same registry snapshot as JSON (stable schema)
//	/traces        retained traces as JSON, newest first (?limit=N)
//	/debug/pprof/  the Go profiler suite
//
// node labels the /statz payload; tracer may be nil (the /traces endpoint
// then serves an empty trace list). Serve it with http.ListenAndServe on
// a side port — never on the transaction-serving address.
func DebugMux(node string, reg *MetricsRegistry, tracer *Tracer) *http.ServeMux {
	return DebugMuxWith(node, reg, tracer, DebugOptions{})
}

// DebugOptions extends DebugMux with the cluster observability plane.
// Every field is optional; zero values fall back to DebugMux behavior.
type DebugOptions struct {
	// Collector, when non-nil, replaces the plain /traces view with the
	// stitched cross-node view: traces merged across every tracer
	// forwarding to the collector, each span attributed to its node.
	Collector *TraceCollector
	// Events, when non-nil, adds /events serving the flight-recorder
	// journal (JSON, newest first; ?type=, ?node=, ?limit=).
	Events *EventJournal
	// Health, when non-nil, adds /healthz serving per-objective burn-rate
	// verdicts (503 when any objective pages).
	Health *SLOEngine
}

// DebugMuxWith is DebugMux plus the observability-plane endpoints
// selected by opts:
//
//	/traces   stitched cross-node traces when opts.Collector is set
//	/events   flight-recorder journal when opts.Events is set
//	/healthz  SLO burn-rate verdicts when opts.Health is set
func DebugMuxWith(node string, reg *MetricsRegistry, tracer *Tracer, opts DebugOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/statz", reg.StatzHandler(node))
	if opts.Collector != nil {
		mux.Handle("/traces", opts.Collector.Handler(node, tracer))
	} else {
		mux.Handle("/traces", tracer.Handler())
	}
	if opts.Events != nil {
		mux.Handle("/events", opts.Events.Handler())
	}
	if opts.Health != nil {
		mux.Handle("/healthz", opts.Health.Handler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
