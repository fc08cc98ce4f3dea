// Command aft-server runs one AFT node as a TCP service.
//
// Usage:
//
//	aft-server -addr :7070 -node node-1 -store dynamodb -latency none
//	aft-server -store wal -store-dir /var/lib/aft   # durable disk backend
//	aft-server -store wal -debug-addr :7071         # observability endpoints
//
// The node serves the Table 1 API (StartTransaction / Get / Put /
// CommitTransaction / AbortTransaction) over the repository's wire
// protocol; connect with cmd/aft-client or aft.Dial. The storage backend
// is one of the repository's simulated cloud stores, or the durable
// write-ahead-log engine (-store wal), whose state survives restarts in
// -store-dir; multiple servers
// launched with -store pointing at the same external process would
// require a networked store, so a single server owns its store (the
// multi-node protocols are exercised in-process via aft.NewCluster).
//
// The server also runs the single-node maintenance pipeline — the
// periodic multicast round (draining commit records to the fault-manager
// tap), the fault manager's storage scan, and the global GC pass — so a
// standalone deployment gets §4.2 recovery and §5.2 collection, and its
// /metrics endpoint exposes every subsystem's counters.
//
// With -debug-addr set, a side HTTP listener serves:
//
//	/metrics       Prometheus text exposition (all aft_* families)
//	/statz         the same registry snapshot as JSON (stable schema)
//	/traces        stitched traces, newest first (?trace_id= for one)
//	/events        flight-recorder event journal (?type=, ?node=, ?limit=)
//	/healthz       SLO burn-rate verdicts (503 when an objective pages)
//	/debug/pprof/  the Go profiler suite
//
// SIGQUIT (and a panic on the main goroutine) dumps the flight-recorder
// journal to -events-dump before the runtime's usual stack dump.
//
// SIGINT/SIGTERM shuts down gracefully: the listener stops accepting,
// in-flight transactions get up to -drain-timeout to finish (abandoned
// sessions are reaped by their propagated deadlines), the maintenance
// pipeline stops, and the store is flushed and closed. A second signal
// forces immediate exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"aft/aft"
	"aft/internal/faultmgr"
	"aft/internal/lb"
	"aft/internal/multicast"
	"aft/internal/storage"
	"aft/internal/storage/walengine"
	"aft/internal/telemetry"
	"aft/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", ":7070", "listen address")
		nodeID    = flag.String("node", "aft-node-1", "node identifier")
		backend   = flag.String("store", "dynamodb", "storage backend: dynamodb|s3|redis|wal")
		storeDir  = flag.String("store-dir", "aft-wal", "log directory for -store wal")
		lat       = flag.String("latency", "none", "latency mode: none|cloud|cloud-fast (simulated backends only)")
		cache     = flag.Bool("cache", true, "enable the read data cache")
		seed      = flag.Int64("seed", 1, "latency model seed")
		debug     = flag.String("debug-addr", "", "HTTP address for /metrics, /statz, /traces and /debug/pprof/* (empty disables)")
		mcPeriod  = flag.Duration("multicast-period", time.Second, "multicast round period (the paper's 1s)")
		gcPeriod  = flag.Duration("gc-period", 30*time.Second, "fault-manager scan + global GC period")
		traceEach = flag.Int("trace-sample", 64, "self-sample 1 in N transactions into /traces (<=0 disables)")
		drain     = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight transactions to finish")
		ckptEvery = flag.Duration("checkpoint-interval", 0, "WAL index checkpoint period for -store wal (0 disables; restarts then replay the full log)")
		budget    = flag.Int64("metadata-budget", 0, "metadata memory budget in bytes (0 = unbounded); past it the node spills cold commit records to storage")
		traceRing = flag.Int("trace-ring", 256, "retained-trace ring capacity in entries")
		traceRB   = flag.Int64("trace-ring-bytes", 0, "retained-trace ring byte budget (0 = entry bound only); oldest traces are evicted first")
		eventsCap = flag.Int("events-ring", 4096, "flight-recorder event journal capacity in entries")
		eventsOut = flag.String("events-dump", "aft-events.jsonl", "file the event journal is dumped to on panic or SIGQUIT")
		sloCommit = flag.Duration("slo-commit-p99", 250*time.Millisecond, "commit-latency SLO threshold: the fraction of commits slower than this burns the latency error budget (0 disables the objective)")
		sloShed   = flag.Float64("slo-shed-ratio", 0.01, "shed-ratio SLO: allowed fraction of arrivals shed by admission control (<=0 disables the objective)")
		sloEvery  = flag.Duration("slo-eval-interval", 10*time.Second, "SLO engine sampling period")
	)
	flag.Parse()

	var mode aft.LatencyMode
	switch *lat {
	case "none":
		mode = aft.LatencyNone
	case "cloud":
		mode = aft.LatencyCloud
	case "cloud-fast":
		mode = aft.LatencyCloudFast
	default:
		log.Fatalf("aft-server: unknown latency mode %q", *lat)
	}

	// The observability plane: the flight recorder journals cluster
	// events (created before the store so WAL checkpoint rejections at
	// load time are captured), the collector stitches trace segments
	// forwarded by every tracer in the process, and the SLO engine grades
	// burn rates for /healthz.
	events := aft.NewEventJournal(*eventsCap)
	collector := aft.NewTraceCollector(0)
	defer func() {
		// A panic's flight recording is worth more than the panic alone:
		// persist the journal, then let the crash proceed.
		if r := recover(); r != nil {
			if err := events.DumpToFile(*eventsOut); err == nil {
				fmt.Fprintf(os.Stderr, "aft-server: event journal dumped to %s\n", *eventsOut)
			}
			panic(r)
		}
	}()

	var store aft.Store
	switch *backend {
	case "dynamodb":
		store = aft.NewDynamoDBStore(mode, *seed)
	case "s3":
		store = aft.NewS3Store(mode, *seed)
	case "redis":
		store = aft.NewRedisStore(mode, *seed, 0)
	case "wal":
		ws, err := walengine.Open(*storeDir, walengine.Options{Events: events, EventNode: *nodeID})
		if err != nil {
			log.Fatalf("aft-server: opening WAL store: %v", err)
		}
		store = ws
		fmt.Printf("aft-server: durable WAL store in %s\n", *storeDir)
	default:
		log.Fatalf("aft-server: unknown store %q", *backend)
	}
	// Deferred first so it runs LAST on the clean-shutdown path: the WAL
	// engine's Close flushes and fsyncs the log tail after the server has
	// drained and the maintenance pipeline has stopped.
	if cl, ok := store.(interface{ Close() error }); ok {
		defer func() {
			if err := cl.Close(); err != nil {
				log.Printf("aft-server: closing store: %v", err)
			}
		}()
	}

	sampleEvery := *traceEach
	if sampleEvery <= 0 {
		sampleEvery = -1
	}
	tracer := aft.NewTracer(aft.TracerOptions{
		Node:        *nodeID,
		SampleEvery: sampleEvery,
		Capacity:    *traceRing,
		MaxBytes:    *traceRB,
	})
	tracer.SetSink(collector)

	node, err := aft.NewNode(aft.NodeConfig{
		NodeID:              *nodeID,
		Store:               store,
		EnableDataCache:     *cache,
		Tracer:              tracer,
		Events:              events,
		MetadataBudgetBytes: *budget,
	})
	if err != nil {
		log.Fatalf("aft-server: %v", err)
	}
	// Recover committed state left by a previous process: a no-op over the
	// fresh in-memory simulators, but a WAL-backed server restarting on an
	// existing -store-dir must re-learn its Transaction Commit Set.
	if err := node.Bootstrap(context.Background()); err != nil {
		log.Fatalf("aft-server: bootstrap from storage: %v", err)
	}

	// Maintenance pipeline: multicast rounds feed the fault manager's tap
	// (§4.2); the periodic scan recovers commits a crashed predecessor
	// persisted but never announced, and the GC pass collects superseded
	// state (§5.2). The balancer fronts the node for in-process clients;
	// over the wire it only contributes its metric families.
	bus := multicast.NewBus()
	fm := faultmgr.New(store, faultmgr.StaticMembership{node})
	// The fault manager gets its own tracer identity so stitched traces
	// attribute recovery and delivery spans to "faultmgr" rather than to
	// the node that happened to host the scan — and so even a single-node
	// server produces multi-participant traces on /traces.
	fmTracer := aft.NewTracer(aft.TracerOptions{Node: "faultmgr", SampleEvery: -1})
	fmTracer.SetSink(collector)
	fm.SetTracer(fmTracer)
	bus.Tap(fm.Ingest)
	mc := multicast.NewMulticaster(bus, node, *mcPeriod, true)
	mc.SetTracer(tracer)
	mc.Start()
	defer mc.Stop()
	bal := lb.New(node)

	stopGC := make(chan struct{})
	go maintenanceLoop(fm, node, *budget, *gcPeriod, stopGC)
	defer close(stopGC)
	if *ckptEvery > 0 {
		if ws, ok := store.(*walengine.Store); ok {
			go checkpointLoop(ws, *ckptEvery, stopGC)
		} else {
			log.Printf("aft-server: -checkpoint-interval ignored: store %q keeps no WAL", *backend)
		}
	}

	// The wire server is built before the registry so its aft_wire_*
	// families (frames, bytes, flushes, pipeline depth) are exported next
	// to everything else.
	srv := wire.NewServer(node)
	srv.Logf = log.Printf

	// SLO objectives: commit latency (fraction of commits slower than the
	// threshold burns the budget) and admission sheds over arrivals.
	health := aft.NewSLOEngine()
	if *sloCommit > 0 {
		health.AddObjective(telemetry.Objective{
			Name:   "commit_latency",
			Help:   fmt.Sprintf("commits faster than %s", *sloCommit),
			Target: 0.99,
			SLI:    telemetry.LatencySLI(node.CommitLatency, *sloCommit),
		})
	}
	if *sloShed > 0 {
		m := node.Metrics()
		health.AddObjective(telemetry.Objective{
			Name:   "shed_ratio",
			Help:   "arrivals admitted (not shed by admission control)",
			Target: 1 - *sloShed,
			SLI: telemetry.RatioSLI(
				func() uint64 { return uint64(m.OverloadShed.Load()) },
				func() uint64 { return uint64(m.Started.Load() + m.OverloadShed.Load()) },
			),
		})
	}
	stopSLO := health.Run(*sloEvery)
	defer stopSLO()

	reg := aft.NewMetricsRegistry()
	node.RegisterTelemetry(reg)
	tracer.RegisterTelemetry(reg)
	fmTracer.RegisterTelemetry(reg)
	events.RegisterTelemetry(reg)
	collector.RegisterTelemetry(reg)
	health.RegisterTelemetry(reg)
	bus.RegisterTelemetry(reg)
	fm.RegisterTelemetry(reg)
	bal.RegisterTelemetry(reg)
	wire.RegisterTelemetry(reg, "server", srv.Metrics())
	if ws, ok := store.(*walengine.Store); ok {
		ws.RegisterTelemetry(reg) // storage (backend="wal") + WAL probe
	} else if sm, ok := store.(interface{ Metrics() *storage.Metrics }); ok {
		sm.Metrics().RegisterTelemetry(reg, store.Name())
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("aft-server: %v", err)
	}
	fmt.Printf("aft-server: node %s serving on %s (store=%s latency=%s)\n",
		*nodeID, bound, *backend, *lat)

	if *debug != "" {
		// Lock-contention and allocation profiles tie to the protocol
		// counters served next to them:
		//
		//	curl http://<debug-addr>/metrics
		//	curl http://<debug-addr>/statz
		//	curl http://<debug-addr>/traces
		//	go tool pprof http://<debug-addr>/debug/pprof/profile
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(int(time.Microsecond))
		mux := aft.DebugMuxWith(*nodeID, reg, tracer, aft.DebugOptions{
			Collector: collector,
			Events:    events,
			Health:    health,
		})
		go func() {
			if err := http.ListenAndServe(*debug, mux); err != nil {
				log.Printf("aft-server: debug endpoint: %v", err)
			}
		}()
		fmt.Printf("aft-server: debug endpoint (metrics, statz, traces, events, healthz, pprof) on %s\n", *debug)
	}

	// SIGQUIT persists the flight recorder before the runtime's stack
	// dump: the journal is re-raised to the default handler so the usual
	// goroutine dump (and exit) still happens.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			if err := events.DumpToFile(*eventsOut); err != nil {
				log.Printf("aft-server: event journal dump: %v", err)
			} else {
				fmt.Fprintf(os.Stderr, "aft-server: event journal dumped to %s\n", *eventsOut)
			}
			signal.Reset(syscall.SIGQUIT)
			syscall.Kill(syscall.Getpid(), syscall.SIGQUIT)
		}
	}()

	runServer(srv, node, *drain)
}

// maintenanceLoop periodically recovers unannounced commits from storage,
// runs one global-GC pass, and (with a budget set) brings the node's
// metadata memory back under it, until stop closes.
func maintenanceLoop(fm *faultmgr.Manager, node *aft.Node, budget int64, period time.Duration, stop <-chan struct{}) {
	if period <= 0 {
		period = 30 * time.Second
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), period)
			if err := fm.ScanStorageTraced(ctx); err != nil {
				log.Printf("aft-server: fault-manager scan: %v", err)
			}
			if _, err := fm.CollectOnceTraced(ctx, 0); err != nil {
				log.Printf("aft-server: global GC: %v", err)
			}
			if budget > 0 {
				if _, err := node.EnforceBudget(ctx); err != nil {
					log.Printf("aft-server: metadata budget enforcement: %v", err)
				}
			}
			cancel()
		}
	}
}

// checkpointLoop periodically checkpoints the WAL store's key index so a
// restart replays only the log tail written since, until stop closes.
func checkpointLoop(ws *walengine.Store, period time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), period)
			if _, err := ws.Checkpoint(ctx); err != nil && err != walengine.ErrCheckpointInProgress {
				log.Printf("aft-server: WAL checkpoint: %v", err)
			}
			cancel()
		}
	}
}

// runServer blocks until SIGINT/SIGTERM, then shuts down gracefully: the
// listener stops accepting, in-flight transactions get up to drain to
// finish (dangling sessions abandoned by dead clients are reaped by their
// propagated deadlines so they cannot hold up the drain), and only then
// do the caller's defers stop the maintenance pipeline and flush/close
// the store. A second signal forces immediate exit.
func runServer(srv *aft.Server, node *aft.Node, drain time.Duration) {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("aft-server: draining (up to %s; signal again to force)\n", drain)

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	go func() {
		// Second signal: skip the drain.
		select {
		case <-sig:
			fmt.Println("aft-server: forced shutdown")
			cancel()
		case <-ctx.Done():
		}
	}()
	go func() {
		// Abandoned sessions (clients that died mid-transaction) only
		// quiesce through the reaper; tick it so the drain converges.
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				node.ReapExpired(ctx, 0)
			}
		}
	}()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("aft-server: shutdown forced with transactions in flight: %v", err)
		return
	}
	fmt.Println("aft-server: drained cleanly")
}
