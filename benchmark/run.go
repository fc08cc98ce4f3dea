package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"aft/aft"
)

// options is one invocation of the benchmark.
type options struct {
	w       workload
	seed    int64
	seconds float64 // measured time, split evenly over the repetitions
	trace   bool
	outDir  string // trace files and on-disk engine directories go here
	setups  int    // gated run: how many times set-up is timed
	reps    int    // gated run: repetitions the measured time is split into
	log     io.Writer
}

// Gated runs time set-up gatedSetups times and split the measured time
// into gatedReps repetitions; each metric is the median over them. A
// traced run splits it into traceSlots equal repetitions instead.
const (
	gatedSetups = 3
	gatedReps   = 5
	traceSlots  = 4
)

// outcome is what one invocation reports.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
	samples           map[string]int // how many measurements are behind each metric
	traceFile         string
}

// bench is one set-up deployment with its clients.
type bench struct {
	opt     options
	d       *deployment
	ks      *keyspace
	clients []*client

	attempted, failed int
	firstErr          error
	// pace is the fastest client's transactions per second in the last
	// phase; measure sizes the latency buffers from it.
	pace float64
}

// setUp builds the deployment, dials it, preloads every key and serves the
// workload's warm-up transactions, returning how long all of that took.
func setUp(opt options) (*bench, time.Duration, error) {
	w := opt.w
	start := time.Now()
	d, err := deploy(w, opt.seed, filepath.Join(opt.outDir, "stores"), opt.trace)
	if err != nil {
		return nil, 0, err
	}
	built := time.Since(start)
	b := &bench{opt: opt, d: d, ks: newKeyspace(w.keys, w.valueBytes)}
	var picker keyPicker = uniformKeys{w.keys}
	if w.zipf > 0 {
		picker = newZipfKeys(w.keys, w.zipf)
	}
	for c, s := range newScripts(opt.seed, w.clients, w.shape, picker) {
		b.clients = append(b.clients, newClient(c, b.ks, w.shape, s))
	}
	ctx := context.Background()
	errs := make([]error, len(b.clients))
	b.each(func(c *client) { errs[c.id] = c.preload(ctx, d.handle, len(b.clients)) })
	for _, err := range errs {
		if err != nil {
			d.close()
			return nil, 0, err
		}
	}
	// Preload commits went to whichever node the balancer picked and
	// multicast is periodic, so a read on another node would miss a key that
	// exists and fail its transaction: hold the warm-up until every node
	// serves every key.
	if w.nodes > 1 {
		_, err := d.eventually(opt.log, "preload", func() (n int, err error) {
			for _, node := range d.nodes() {
				if n, err = verifyReadback(ctx, node, b.ks, b.clients); err != nil {
					return n, fmt.Errorf("on %s: %w", node.ID(), err)
				}
			}
			return n, nil
		})
		if err != nil {
			d.close()
			return nil, 0, err
		}
	}
	loaded := time.Since(start)
	perClient := (w.warmTxns + len(b.clients) - 1) / len(b.clients)
	b.phase(d.handle, func(done int, _ time.Time) bool { return done >= perClient })
	total := time.Since(start)
	fmt.Fprintf(opt.log, "# set-up %.3fs: built and dialled %.3fs, scripts and %d-key preload %.3fs, %d warm-up txns %.3fs\n",
		total.Seconds(), built.Seconds(), w.keys, (loaded - built).Seconds(), b.attempted, (total - loaded).Seconds())
	return b, total, nil
}

// each runs f once per client, concurrently, and waits.
func (b *bench) each(f func(*client)) {
	var wg sync.WaitGroup
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			f(c)
		}(c)
	}
	wg.Wait()
}

// phase drives every client's closed loop against h until stop says so (it
// is asked between transactions, with how many the client has done in this
// phase), and returns the wall time from release to the last client
// finishing. Tallies are folded into the bench.
func (b *bench) phase(h aft.Client, stop func(done int, now time.Time) bool) time.Duration {
	for _, c := range b.clients {
		c.resetPhase()
	}
	ctx := context.Background()
	start := time.Now()
	b.each(func(c *client) { c.loop(ctx, h, stop) })
	wall := time.Since(start)
	b.pace = 0
	for _, c := range b.clients {
		b.pace = max(b.pace, float64(c.committed)/wall.Seconds())
		b.attempted += c.committed + c.failed
		b.failed += c.failed
		if b.firstErr == nil {
			b.firstErr = c.firstErr
		}
	}
	return wall
}

// repStats is one timed repetition.
type repStats struct {
	wall       time.Duration
	committed  int
	lat        []int64 // sorted, ns
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	heapEnd    uint64
	cpu        time.Duration
}

func (r repStats) tps() float64 { return float64(r.committed) / r.wall.Seconds() }

// endToEnd returns the repetition's gated metrics.
func (r repStats) endToEnd() map[string]float64 {
	return map[string]float64{
		"txn_tps":        r.tps(),
		"txn_p50_us":     float64(percentile(r.lat, 50)) / 1e3,
		"txn_p90_us":     float64(percentile(r.lat, 90)) / 1e3,
		"allocs_per_txn": ratio(float64(r.mallocs), float64(r.committed)),
	}
}

// measure runs one timed repetition of dur against h. The Go heap is
// collected first so every repetition starts from the same state; the
// allocation and CPU readings bracket only the closed loops.
func (b *bench) measure(h aft.Client, dur time.Duration) repStats {
	// Room for twice the last phase's pace, so the timed path appends
	// without growing.
	need := int(2*b.pace*dur.Seconds()) + 1024
	for _, c := range b.clients {
		if cap(c.lat) < need {
			c.lat = make([]int64, 0, need)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	deadline := time.Now().Add(dur)
	wall := b.phase(h, func(_ int, now time.Time) bool { return !now.Before(deadline) })
	cpu1 := processCPU()
	runtime.ReadMemStats(&after)
	r := repStats{
		wall:       wall,
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		heapEnd:    after.HeapAlloc,
		cpu:        cpu1 - cpu0,
	}
	for _, c := range b.clients {
		r.committed += c.committed
		r.lat = append(r.lat, c.lat...)
	}
	slices.Sort(r.lat)
	return r
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// verify runs the after-the-run output checks: no transaction failed, every
// acknowledged write reads back through the workload's own handle, and on
// an on-disk engine again after a crash and a reopen from the files alone.
// It returns the reopen time (0 for in-memory engines). The deployment is
// shut down by the time it returns.
func (b *bench) verify() (reopen time.Duration, err error) {
	if b.failed > 0 {
		return 0, fmt.Errorf("%d of %d transactions failed; first: %w", b.failed, b.attempted, b.firstErr)
	}
	ctx := context.Background()
	// Multicast is periodic: every node must have heard every commit before
	// an arbitrary one is asked for the newest version.
	n, err := b.d.eventually(b.opt.log, "readback", func() (int, error) {
		return verifyReadback(ctx, b.d.handle, b.ks, b.clients)
	})
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(b.opt.log, "# readback: %d keys match their newest acknowledged write\n", n)
	b.d.stopServing()
	ws, ok := b.d.store.(walStore)
	if !ok {
		return 0, nil
	}
	if err := ws.Crash(); err != nil {
		return 0, fmt.Errorf("crashing the store: %w", err)
	}
	start := time.Now()
	reopened, err := aft.NewWALStore(b.d.dir)
	if err != nil {
		return 0, fmt.Errorf("reopening %s: %w", b.d.dir, err)
	}
	reopen = time.Since(start)
	b.d.store = reopened // so close() shuts the handle that is open now
	node, err := aft.NewNode(aft.NodeConfig{NodeID: "reopened", Store: reopened})
	if err != nil {
		return 0, err
	}
	if err := node.Bootstrap(ctx); err != nil {
		return 0, fmt.Errorf("bootstrapping over the reopened store: %w", err)
	}
	n, err = verifyReadback(ctx, node, b.ks, b.clients)
	if err != nil {
		return 0, fmt.Errorf("after crash and reopen: %w", err)
	}
	fmt.Fprintf(b.opt.log, "# reopen: %d keys match after crash, reopen (%.3fs) and bootstrap\n", n, reopen.Seconds())
	return reopen, nil
}

// runGated measures the end-to-end metrics with nothing wrapped around the
// deployment: set-up timed opt.setups times, then opt.reps repetitions, the
// median of each reported.
func runGated(opt options) (*outcome, error) {
	var (
		b          *bench
		setupTimes []float64
		attempted  int
	)
	for i := 0; i < opt.setups; i++ {
		if b != nil {
			attempted += b.attempted
			b.d.close()
			runtime.GC()
		}
		nb, took, err := setUp(opt)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		b = nb
		setupTimes = append(setupTimes, took.Seconds())
		if b.failed > 0 {
			break // verify reports it; there is nothing worth timing
		}
	}
	defer func() { b.d.close() }()

	repDur := time.Duration(opt.seconds / float64(opt.reps) * float64(time.Second))
	var (
		reps []map[string]float64
		tps  []float64
		txns int
	)
	for i := 0; i < opt.reps && b.failed == 0; i++ {
		r := b.measure(b.d.handle, repDur)
		reps = append(reps, r.endToEnd())
		fmt.Fprintf(opt.log, "# rep %d: %d txns, %.1f txn/s, p50 %.1f us, p90 %.1f us, p99 %.1f us, %.1f allocs/txn\n", i+1, r.committed,
			r.tps(), reps[i]["txn_p50_us"], reps[i]["txn_p90_us"], float64(percentile(r.lat, 99))/1e3, reps[i]["allocs_per_txn"])
		tps = append(tps, r.tps())
		txns += r.committed
	}
	out := &outcome{
		metrics: medianOfReps(reps),
		samples: map[string]int{},
	}
	for name := range out.metrics {
		out.samples[name] = len(reps)
	}
	out.metrics["setup_s"] = median(setupTimes)
	out.samples["setup_s"] = len(setupTimes)
	if len(tps) > 1 {
		fmt.Fprintf(opt.log, "# harness.drift_ratio %.4f\n# harness.rep_spread %.4f\n",
			ratio(tps[len(tps)-1], tps[0]), spread(tps))
	}
	fmt.Fprintf(opt.log, "# %d transactions timed in %d repetitions of %v; set-up times %.3v s\n",
		txns, len(reps), repDur, setupTimes)
	_, err := b.verify()
	out.attempted, out.failed = attempted+b.attempted, b.failed
	out.correct = err == nil
	return out, err
}
