package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"time"

	"aft/aft"
	"aft/internal/chaos"
	"aft/internal/checker"
	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/stats"
	"aft/internal/wire"
	"aft/internal/workload"
)

// ResilienceCell is one seed's campaign result. Fields outside Measured
// are deterministic for a fixed seed and scale.
type ResilienceCell struct {
	Seed     int64 `json:"seed"`
	Requests int   `json:"requests"`
	Keys     int   `json:"keys"`

	Committed     int64 `json:"committed"`
	Redos         int64 `json:"redos"`
	CommitRetries int64 `json:"commit_retries"`

	Partitions      int64 `json:"partitions"`
	Heals           int64 `json:"heals"`
	BlackholedConns int64 `json:"blackholed_conns"`
	ConnResets      int64 `json:"conn_resets"`
	SwallowedWrites int64 `json:"swallowed_writes"`
	DrippedConns    int64 `json:"dripped_conns"`
	Conns           int64 `json:"conns"`

	Shed   int64 `json:"overload_shed"`
	Reaped int64 `json:"reaped_expired"`

	LeakedGoroutines int `json:"leaked_goroutines"`

	Verdict checker.Verdict `json:"verdict"`

	// Measured holds the wall-clock-dependent numbers; they vary run to
	// run and are excluded from the determinism contract.
	Measured ResilienceMeasured `json:"measured"`
}

// ResilienceMeasured is the non-deterministic part of a cell.
type ResilienceMeasured struct {
	DelaySpikes   int64   `json:"delay_spikes"`
	BaselineTPS   float64 `json:"baseline_tps"`
	OverloadTPS   float64 `json:"overload_goodput_tps"`
	GoodputRatio  float64 `json:"goodput_ratio"`
	P99Millis     float64 `json:"p99_ms"`
	BurstShed     int64   `json:"burst_shed"`
	BurstDeadline int64   `json:"burst_deadline_exceeded"`
}

// ResilienceTable renders measured cells as the experiment's table.
func ResilienceTable(cells []ResilienceCell) (Table, error) {
	table := Table{
		Title: "Resilience: partitions, resets, overload — deadline+retry survival",
		Header: []string{"seed", "requests", "committed", "redos", "partitions",
			"resets", "swallowed", "dripped", "shed", "reaped", "goro leak",
			"goodput ratio", "p99 ms", "anomalies", "verdict"},
		Notes: []string{
			"network faults: one two-way and one outbound (gray) blackhole partition, mid-frame conn resets, delay spikes, slow-drip conns",
			"shed: arrivals fast-failed with ErrOverloaded while all slots were held and the admission queue was full",
			"reaped: dangling transactions abandoned by timed-out clients, reclaimed past their propagated deadline",
			"goodput ratio: committed rate under a 4x-concurrency closed-loop burst vs the uncontended rate (retry with jittered backoff)",
		},
	}
	for _, c := range cells {
		verdict := "CLEAN"
		if !c.Verdict.Clean() {
			verdict = "ANOMALOUS"
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(c.Seed), fmt.Sprint(c.Requests), fmt.Sprint(c.Committed),
			fmt.Sprint(c.Redos), fmt.Sprint(c.Partitions), fmt.Sprint(c.ConnResets),
			fmt.Sprint(c.SwallowedWrites), fmt.Sprint(c.DrippedConns),
			fmt.Sprint(c.Shed), fmt.Sprint(c.Reaped), fmt.Sprint(c.LeakedGoroutines),
			fmt.Sprintf("%.2f", c.Measured.GoodputRatio),
			fmt.Sprintf("%.1f", c.Measured.P99Millis),
			fmt.Sprint(c.Verdict.Anomalies()), verdict,
		})
	}
	return table, nil
}

// ResilienceCells runs the network-level survival experiment: one AFT node
// behind a real TCP wire server, its listener wrapped in the seeded
// network fault injector. A sequential deterministic campaign drives the
// redo-until-commit workload through two blackhole partitions (one
// two-way, one outbound-only gray failure), scheduled mid-frame
// connection resets, delay spikes, and slow-drip conns, with the history
// checker auditing read atomicity throughout; dangling server-side
// transactions abandoned by timed-out clients are reclaimed by the
// expired-transaction reaper. An overload phase then demonstrates
// admission control: with every concurrency slot held and the waiting
// queue full, new arrivals shed with ErrOverloaded, and a 4x-concurrency
// closed-loop burst (retrying through the public backoff policy) must
// keep goodput close to the uncontended rate.
//
// Determinism: one driver goroutine issues every request; partitions
// auto-heal after a fixed number of accepted conns (each failed attempt
// redials exactly once); resets fire on the global write-frame clock; and
// per-conn decisions are hash-derived. Every cell field outside the
// `measured` sub-struct is bit-for-bit reproducible for a fixed seed and
// scale — wall-clock-dependent numbers (rates, p99, burst shed counts,
// read-frame delay spikes) are quarantined in `measured`.
//
// One campaign runs per seed (opts.Seed, +1, +2).
func ResilienceCells(opts Options) ([]ResilienceCell, error) {
	opts = opts.withDefaults()
	var cells []ResilienceCell
	for i := int64(0); i < 3; i++ {
		cell, err := runResilienceCell(opts, opts.Seed+i)
		if err != nil {
			return cells, fmt.Errorf("resilience seed %d: %w", opts.Seed+i, err)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// resilience campaign shape.
const (
	resilienceKeys          = 64
	resilienceSeedPer       = 16 // keys seeded per bootstrap transaction
	resilienceMaintain      = 20 // requests between maintenance points
	resilienceMaxConcurrent = 8  // node concurrency slots
	resilienceQueue         = 8  // admission waiting-queue bound
	resilienceHealAccepts   = 3  // partition auto-heal budget (failed redials)
	resilienceEpoch         = int64(1) << 50
	// resilienceOpTimeout is the client's per-op deadline: short enough
	// that a partition window costs ~healAccepts timeouts, long enough
	// that no healthy op ever trips it. The margin must absorb scheduler
	// stall on a loaded box, not just the injected delays (≤ ~20ms at
	// default scale) — a spurious timeout would perturb the locked redo
	// count. Partition-window redo counts don't depend on this value:
	// they are set by the accept-heal budget, and an abandoned op's
	// lease is its own deadline, so it is always expired by the time the
	// next attempt's admission path runs the reaper. Quick campaigns run
	// with a virtual sleeper (no real injected delay at all), so a
	// smaller stall margin keeps the CI path fast.
	resilienceOpTimeout      = time.Second
	resilienceOpTimeoutQuick = 300 * time.Millisecond
)

// runResilienceCell runs one seed's campaign, bracketing it with a
// goroutine census: everything the cell starts must be gone when it ends.
func runResilienceCell(opts Options, seed int64) (ResilienceCell, error) {
	before := runtime.NumGoroutine()
	cell, err := resilienceCampaign(opts, seed)
	if err != nil {
		return cell, err
	}
	// Let conn handlers and burst workers finish dying before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if leaked := runtime.NumGoroutine() - before; leaked > 0 {
		cell.LeakedGoroutines = leaked
	}
	return cell, nil
}

func resilienceCampaign(opts Options, seed int64) (ResilienceCell, error) {
	ctx := context.Background()
	requests := 120
	if opts.Quick {
		requests = 40
	}
	cell := ResilienceCell{Seed: seed, Requests: requests, Keys: resilienceKeys}

	// The node under test: bounded concurrency, a bounded admission
	// queue, and fully deterministic transaction IDs.
	st := opts.newStore(kindDynamo)
	defer func() {
		if cl, ok := st.(io.Closer); ok {
			cl.Close()
		}
	}()
	node, err := core.NewNode(core.Config{
		NodeID:           "resilience-0",
		Store:            st,
		EnableDataCache:  true,
		DataCacheEntries: 16384,
		IDEntropySeed:    seed,
		Clock:            idgen.NewVirtualClock(resilienceEpoch, 1),
		MaxConcurrent:    resilienceMaxConcurrent,
		AdmissionQueue:   resilienceQueue,
	})
	if err != nil {
		return cell, err
	}

	// The wire server listens through the network fault injector; the
	// client's short OpTimeout turns every injected hang into a retriable
	// deadline error (and rides the wire so the server abandons the work).
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return cell, err
	}
	nc := chaos.WrapListener(raw, chaos.NetConfig{
		Seed:         seed,
		DelayRate:    0.02,
		Delay:        5 * time.Millisecond,
		SlowDripRate: 0.15,
		Sleeper:      opts.sleeper(),
	})
	srv := wire.NewServer(node)
	addr := srv.Serve(nc)
	defer srv.Close()

	opTimeout := resilienceOpTimeout
	if opts.Quick {
		opTimeout = resilienceOpTimeoutQuick
	}
	client, err := wire.DialWith(addr.String(), wire.DialConfig{
		MaxConns:    4,
		OpTimeout:   opTimeout,
		DialTimeout: opTimeout,
	})
	if err != nil {
		return cell, err
	}
	defer client.Close()

	check := checker.New()
	runner := &chaos.Runner{
		Client:  client,
		Payload: workload.Payload(seed, opts.Payload),
		Check:   check,
	}

	// Seed every key clean, so reads always find a committed version.
	for start := 0; start < resilienceKeys; start += resilienceSeedPer {
		var ops []workload.Op
		for i := start; i < start+resilienceSeedPer && i < resilienceKeys; i++ {
			ops = append(ops, workload.Op{Kind: workload.OpWrite, Key: workload.KeyName(i)})
		}
		if err := runner.Do(ctx, workload.Request{Funcs: [][]workload.Op{ops}}); err != nil {
			return cell, fmt.Errorf("seeding: %w", err)
		}
	}

	// The deterministic campaign: faults fire at fixed request indices.
	// The Both partition drops everything; the Outbound partition is the
	// gray failure (the node does the work, every ack is lost); the three
	// resets each cut the next response frame in half.
	gen := workload.NewGenerator(seed, workload.NewZipf(seed+100, resilienceKeys, 1.0), 2, 2, 2)
	for i := 0; i < requests; i++ {
		if err := runner.Do(ctx, gen.Next()); err != nil {
			return cell, fmt.Errorf("request %d: %w", i, err)
		}
		switch n := i + 1; n {
		case requests / 4:
			nc.SetPartition(chaos.PartitionBoth, resilienceHealAccepts)
		case requests / 3, requests / 2, 2 * requests / 3:
			nc.ResetAfterWrites(1)
		case 3 * requests / 4:
			nc.SetPartition(chaos.PartitionOutbound, resilienceHealAccepts)
		}
		if (i+1)%resilienceMaintain == 0 {
			node.SweepLocalMetadata(0)
			node.ReapExpired(ctx, 0)
		}
	}
	if p := nc.PendingResets(); p != 0 {
		return cell, fmt.Errorf("%d scheduled resets never fired", p)
	}

	// Quiesce: every transaction abandoned by a timed-out client (its
	// Start executed server-side but the ack was lost) must be reclaimed
	// by the reaper once its propagated deadline passes — the node ends
	// the campaign with zero in-flight transactions.
	nc.SetPartition(chaos.PartitionNone, 0)
	quiesceBy := time.Now().Add(5 * time.Second)
	for node.ActiveTransactions() > 0 {
		node.ReapExpired(ctx, 0)
		if time.Now().After(quiesceBy) {
			return cell, fmt.Errorf("%d transactions never quiesced", node.ActiveTransactions())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cell.Reaped = node.Metrics().Snapshot().ReapedExpired

	// Audit: settle indeterminate commits against storage ground truth,
	// then replay the observed history plus a final-state read.
	if _, err := check.ResolveStorage(ctx, st); err != nil {
		return cell, err
	}
	keys := make([]string, resilienceKeys)
	for i := range keys {
		keys[i] = workload.KeyName(i)
	}
	final, err := runner.FinalState(ctx, keys)
	if err != nil {
		return cell, err
	}
	cell.Verdict = check.Verdict(final)

	rm := runner.Metrics().Snapshot()
	cell.Committed = rm.Commits
	cell.Redos = rm.Redos
	cell.CommitRetries = rm.CommitRetries
	nm := nc.NetFaultMetrics().Snapshot()
	cell.Partitions = nm.Partitions
	cell.Heals = nm.Heals
	cell.BlackholedConns = nm.BlackholedConns
	cell.ConnResets = nm.Resets
	cell.SwallowedWrites = nm.SwallowedWrites
	cell.DrippedConns = nm.DrippedConns
	cell.Conns = nm.Conns
	cell.Measured.DelaySpikes = nm.Delays

	// Overload phase, on a second fault-free listener against the same
	// node: first the deterministic shed demonstration, then the measured
	// 4x-concurrency burst.
	if err := resilienceOverload(ctx, opts, seed, node, &cell); err != nil {
		return cell, err
	}

	// Graceful teardown exercises the drain path: all transactions are
	// settled, so Shutdown returns without forcing.
	client.Close()
	shutCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return cell, fmt.Errorf("shutdown: %w", err)
	}
	return cell, nil
}

// resilienceOverload runs the admission-control phase against node via a
// plain (fault-free) wire listener.
func resilienceOverload(ctx context.Context, opts Options, seed int64, node *core.Node, cell *ResilienceCell) error {
	srv := wire.NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	oc, err := wire.DialWith(addr.String(), wire.DialConfig{
		MaxConns: 4 * resilienceMaxConcurrent, OpTimeout: 5 * time.Second,
	})
	if err != nil {
		return err
	}
	defer oc.Close()

	// Deterministic shed demonstration: hold every concurrency slot, park
	// a full admission queue behind them, then count exactly queue-many
	// fast-fail ErrOverloaded rejections.
	shed0 := node.Metrics().Snapshot().OverloadShed
	holds := make([]string, 0, resilienceMaxConcurrent)
	for i := 0; i < resilienceMaxConcurrent; i++ {
		txid, err := oc.StartTransaction(ctx)
		if err != nil {
			return fmt.Errorf("overload hold %d: %w", i, err)
		}
		holds = append(holds, txid)
	}
	type parked struct {
		txid string
		err  error
	}
	parkedCh := make(chan parked, resilienceQueue)
	for i := 0; i < resilienceQueue; i++ {
		go func() {
			txid, err := oc.StartTransaction(ctx)
			parkedCh <- parked{txid, err}
		}()
	}
	waitBy := time.Now().Add(2 * time.Second)
	for node.AdmissionWaiting() < resilienceQueue {
		if time.Now().After(waitBy) {
			return fmt.Errorf("admission queue never filled (waiting=%d)", node.AdmissionWaiting())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < resilienceQueue; i++ {
		txid, err := oc.StartTransaction(ctx)
		switch {
		case errors.Is(err, core.ErrOverloaded):
			cell.Shed++
		case err == nil:
			oc.AbortTransaction(ctx, txid)
		default:
			return fmt.Errorf("overflow start %d: %w", i, err)
		}
	}
	if got := node.Metrics().Snapshot().OverloadShed - shed0; got != cell.Shed {
		return fmt.Errorf("shed metric %d != observed rejections %d", got, cell.Shed)
	}
	if cell.Shed != resilienceQueue {
		return fmt.Errorf("shed %d arrivals, want %d (slots and queue all held)", cell.Shed, resilienceQueue)
	}
	for _, txid := range holds {
		if err := oc.AbortTransaction(ctx, txid); err != nil {
			return fmt.Errorf("releasing hold: %w", err)
		}
	}
	for i := 0; i < resilienceQueue; i++ {
		p := <-parkedCh
		if p.err != nil {
			return fmt.Errorf("parked start: %w", p.err)
		}
		if err := oc.AbortTransaction(ctx, p.txid); err != nil {
			return fmt.Errorf("releasing parked: %w", err)
		}
	}

	// Measured burst: closed-loop committed throughput at the node's
	// concurrency (baseline) vs 4x that offered load, every worker
	// retrying through the public jittered-backoff policy. Overloaded
	// arrivals shed and back off; goodput must hold.
	dur := 600 * time.Millisecond
	if opts.Quick {
		dur = 250 * time.Millisecond
	}
	payload := workload.Payload(seed, opts.Payload)
	// The cap is a balance: shed workers backing off too briefly steal
	// CPU and admission bandwidth from the workers doing useful work;
	// backing off too long lets the whole population collapse into sleep
	// at once, draining the queue and idling the node between arrivals.
	// 64ms keeps a shed worker retrying a few times per window while
	// leaving the slots-plus-queue population to run at full speed.
	policy := aft.RetryPolicy{
		MaxAttempts: 1000,
		BackoffBase: 4 * time.Millisecond,
		BackoffCap:  64 * time.Millisecond,
		BackoffSeed: seed,
	}
	run := func(clients int) (float64, *stats.Recorder, error) {
		rec := stats.NewRecorder()
		count, elapsed, err := runForDuration(clients, dur, func(c int) error {
			start := time.Now()
			err := aft.RunTransactionPolicy(ctx, oc, policy, func(t *aft.Txn) error {
				return t.Put(workload.KeyName(c%resilienceKeys), payload)
			})
			if err != nil {
				return err
			}
			rec.Record(time.Since(start))
			return nil
		})
		if err != nil {
			return 0, nil, err
		}
		return float64(count) / elapsed.Seconds(), rec, nil
	}
	// Baseline and burst run as interleaved pairs, and the reported ratio
	// is the median of the per-pair ratios: short closed-loop windows on
	// a shared machine are noisy (GC, scheduler), and any monotone drift
	// — the box slowing down over the run — would otherwise bias against
	// whichever phase runs second. Inside a pair the two windows are
	// adjacent, so drift cancels out of the ratio.
	windows := 3
	if opts.Quick {
		windows = 1
	}
	// A discarded warmup settles connection setup, allocator, and branch
	// state so baseline and burst windows measure the same steady state.
	if _, _, err := run(resilienceMaxConcurrent); err != nil {
		return fmt.Errorf("warmup: %w", err)
	}
	type pair struct {
		base, burst float64
		ratio       float64
		rec         *stats.Recorder
	}
	m0 := node.Metrics().Snapshot()
	pairs := make([]pair, 0, windows)
	for i := 0; i < windows; i++ {
		base, _, err := run(resilienceMaxConcurrent)
		if err != nil {
			return fmt.Errorf("baseline window %d: %w", i, err)
		}
		burst, rec, err := run(4 * resilienceMaxConcurrent)
		if err != nil {
			return fmt.Errorf("burst window %d: %w", i, err)
		}
		r := 0.0
		if base > 0 {
			r = burst / base
		}
		pairs = append(pairs, pair{base, burst, r, rec})
	}
	m1 := node.Metrics().Snapshot()
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].ratio < pairs[j].ratio })
	mid := pairs[len(pairs)/2]
	baseline, goodput, rec := mid.base, mid.burst, mid.rec
	cell.Measured.BaselineTPS = opts.rescaleRate(baseline)
	cell.Measured.OverloadTPS = opts.rescaleRate(goodput)
	if baseline > 0 {
		cell.Measured.GoodputRatio = goodput / baseline
	}
	cell.Measured.P99Millis = stats.Millis(opts.rescale(rec.Summarize().P99))
	cell.Measured.BurstShed = m1.OverloadShed - m0.OverloadShed
	cell.Measured.BurstDeadline = m1.DeadlineExceeded - m0.DeadlineExceeded

	oc.Close()
	shutCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}
