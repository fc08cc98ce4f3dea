package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"
)

// storeSpanCap bounds the storage span buffer of one traced repetition
// (48 B each). Past it spans are dropped and counted, never reallocated.
const storeSpanCap = 1 << 20

// pingPeriod is the prober's interval: 100 pings a second, far too few to
// load the wire, enough for a median.
const pingPeriod = 10 * time.Millisecond

// runTraced measures the per-layer metrics. The measured time is split
// into traceSlots repetitions of the same length: untraced, traced,
// untraced, and (wire workloads) the third repetition's scripts replayed
// straight on the node. Per-layer numbers come from the traced one; the
// untraced pair brackets it, so tracing overhead and drift are read off
// the same process. None of these numbers is gated.
func runTraced(opt options) (*outcome, error) {
	b, _, err := setUp(opt)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.d.close()
	d, w := b.d, opt.w
	slot := time.Duration(opt.seconds / traceSlots * float64(time.Second))

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapStart := ms.HeapAlloc

	u1 := b.measure(d.handle, slot)

	// Traced repetition: a span buffer per client, one for the store.
	storeLog := newSpanLog(storeSpanCap)
	perTxn := w.shape.keysPerTxn() + 3 // ops, plus start, commit and the txn span
	for _, c := range b.clients {
		c.trace = &tracedClient{
			inner: d.handle, log: storeLog, id: int16(c.id),
			spans: make([]span, 0, int(2*b.pace*slot.Seconds())*perTxn+1024),
		}
	}
	var pings []int64
	stopPinger := func() {}
	if d.remote != nil {
		pings = make([]int64, 0, int(2*slot/pingPeriod)+16)
		stopPinger = startPinger(d, &pings)
	}
	c0, s0 := readCounters(d), d.traced.counts()
	d.traced.attach(storeLog)
	t := b.measure(d.handle, slot)
	d.traced.attach(nil)
	c1, s1 := readCounters(d), d.traced.counts()
	stopPinger()
	var clientSpans [][]span
	dropped := int(storeLog.dropped.Load())
	for _, c := range b.clients {
		clientSpans = append(clientSpans, c.trace.spans)
		dropped += c.trace.dropped
		c.trace = nil
	}

	marks := make([]int, len(b.clients))
	for i, c := range b.clients {
		marks[i] = c.next
	}
	u2 := b.measure(d.handle, slot)
	committed := u1.committed + t.committed + u2.committed

	var inproc repStats
	if w.overWire {
		for i, c := range b.clients {
			c.next = marks[i]
		}
		inproc = b.measure(d.nodes()[0], slot)
		committed += inproc.committed
	}

	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapEnd := ms.HeapAlloc
	metaRecords := metadataRecords(d.nodes())
	liveKeys, err := d.store.List(context.Background(), "")
	if err != nil {
		return nil, fmt.Errorf("listing the store: %w", err)
	}
	var diskBytes int64
	if d.dir != "" {
		if diskBytes, err = dirBytes(d.dir); err != nil {
			return nil, err
		}
	}
	var userBytes int64
	for _, c := range b.clients {
		userBytes += int64(c.puts) * int64(w.valueBytes)
	}
	walCompactions := readCounters(d).Compactions

	out := &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
	reopen, verr := b.verify()
	out.attempted, out.failed = b.attempted, b.failed
	out.correct = verr == nil
	if verr != nil {
		return out, verr
	}
	// The deployment is stopped: nothing else allocates while the codec is timed.
	marshalNs, unmarshalNs, marshalAllocs, err := recordsCodec()
	if err != nil {
		return out, err
	}

	all := append(append([][]span(nil), clientSpans...), storeLog.recorded())
	if out.traceFile, err = writeJSONL(opt.outDir, w.name, all...); err != nil {
		return out, fmt.Errorf("writing the trace: %w", err)
	}
	if dropped > 0 {
		fmt.Fprintf(opt.log, "# trace: %d spans dropped (buffers full)\n", dropped)
	}

	// Everything below is arithmetic on what was recorded above.
	txns := float64(t.committed)
	var byKind [numSpanKinds][]int64
	var nanos [numSpanKinds]int64
	for _, spans := range all {
		for _, s := range spans {
			byKind[s.kind] = append(byKind[s.kind], s.dur)
			nanos[s.kind] += s.dur
		}
	}
	txnNanos := nanos[spanTxn]
	opNanos := nanos[spanStart] + nanos[spanGet] + nanos[spanMultiGet] + nanos[spanPut] + nanos[spanCommit]
	// The calls a transaction can cause, as opposed to the collector's
	// List and deletes, which run beside the clients, not under them.
	foregroundNanos := nanos[spanStoreGet] + nanos[spanStorePut] + nanos[spanStoreBatchPut] + nanos[spanStoreBatchGet]
	storeNanos := foregroundNanos + nanos[spanStoreList] + nanos[spanStoreDelete] + nanos[spanStoreBatchDelete]
	pct := func(kind spanKind, p float64) float64 {
		slices.Sort(byKind[kind])
		return float64(percentile(byKind[kind], p)) / 1e3
	}
	slices.Sort(pings)
	cd, sd := c1.sub(c0), s1.sub(s0)
	opUsPerTxn := ratio(float64(opNanos)/1e3, txns)
	userBytesTraced := txns * float64(w.shape.putsPerTxn()*w.valueBytes)
	perNode := make([]float64, len(cd.NodeStarted))
	for i, v := range cd.NodeStarted {
		perNode[i] = float64(v)
	}
	untraced := (u1.tps() + u2.tps()) / 2

	m := out.metrics
	m["client.txn_p99_us"] = float64(percentile(t.lat, 99)) / 1e3

	m["wire.rpcs_per_txn"] = ratio(float64(cd.ClientFrames-int64(len(pings))), txns)
	m["wire.bytes_per_txn"] = ratio(float64(cd.ClientBytes), txns)
	m["wire.frames_per_flush"] = ratio(float64(cd.ClientFrames+cd.ServerFrames), float64(cd.ClientFlushes+cd.ServerFlushes))
	m["wire.ping_rtt_us_p50"] = float64(percentile(pings, 50)) / 1e3
	if w.overWire {
		m["wire.vs_inproc_tps_ratio"] = ratio(u2.tps(), inproc.tps())
	}

	m["op.start_us_p50"] = pct(spanStart, 50)
	m["op.get_us_p50"] = pct(spanGet, 50)
	m["op.multiget_us_p50"] = pct(spanMultiGet, 50)
	m["op.put_us_p50"] = pct(spanPut, 50)
	m["op.commit_us_p50"] = pct(spanCommit, 50)
	m["op.commit_us_p90"] = pct(spanCommit, 90)

	m["core.cache_hit_ratio"] = ratio(float64(cd.CacheHits), float64(cd.Reads))
	m["core.commits_per_flush"] = ratio(float64(cd.GroupedCommits), float64(cd.GroupFlushes))
	m["core.metadata_records_end"] = float64(metaRecords)
	m["core.shed_total"] = float64(c1.Shed)
	m["shim.self_us_per_txn"] = opUsPerTxn - ratio(float64(foregroundNanos)/1e3, txns)

	m["records.marshal_ns"] = marshalNs
	m["records.unmarshal_ns"] = unmarshalNs
	m["records.marshal_allocs"] = marshalAllocs

	calls := func(kind spanKind) float64 { return float64(sd.calls[kind]) }
	m["storage.calls_per_txn"] = ratio(float64(sd.totalCalls()), txns)
	m["storage.get_calls_per_txn"] = ratio(calls(spanStoreGet), txns)
	m["storage.put_calls_per_txn"] = ratio(calls(spanStorePut), txns)
	m["storage.batchput_calls_per_txn"] = ratio(calls(spanStoreBatchPut), txns)
	m["storage.batchget_calls_per_txn"] = ratio(calls(spanStoreBatchGet), txns)
	m["storage.list_calls_per_txn"] = ratio(calls(spanStoreList), txns)
	m["storage.delete_calls_per_txn"] = ratio(calls(spanStoreDelete)+calls(spanStoreBatchDelete), txns)
	m["storage.items_per_batchput"] = ratio(float64(sd.items[spanStoreBatchPut]), calls(spanStoreBatchPut))
	m["storage.items_per_batchget"] = ratio(float64(sd.items[spanStoreBatchGet]), calls(spanStoreBatchGet))
	m["storage.busy_us_per_txn"] = ratio(float64(storeNanos)/1e3, txns)
	m["storage.batchput_us_p50"] = pct(spanStoreBatchPut, 50)
	m["storage.batchput_us_p90"] = pct(spanStoreBatchPut, 90)
	m["storage.get_us_p50"] = pct(spanStoreGet, 50)
	m["storage.bytes_written_per_user_byte"] = ratio(float64(sd.bytesWritten), userBytesTraced)
	m["storage.live_keys_end"] = float64(len(liveKeys))

	m["wal.appends_per_fsync"] = ratio(float64(cd.Appends), float64(cd.Fsyncs))
	m["wal.fsyncs_per_txn"] = ratio(float64(cd.Fsyncs), txns)
	m["wal.disk_bytes_per_user_byte"] = ratio(float64(diskBytes), float64(userBytes))
	m["wal.compactions"] = float64(walCompactions)
	m["wal.reopen_s"] = reopen.Seconds()

	m["faultmgr.versions_deleted_per_commit"] = ratio(float64(cd.VersionsDeleted), float64(cd.Committed))
	if w.nodes > 1 {
		m["multicast.deliveries_per_commit"] = ratio(float64(cd.Deliveries), float64(cd.Committed))
		m["multicast.pruned_ratio"] = ratio(float64(cd.Pruned), float64(cd.Pruned+cd.Broadcast))
		m["lb.txns_per_node_cv"] = coefficientOfVariation(perNode)
	}

	m["proc.cpu_us_per_txn"] = ratio(float64(t.cpu)/1e3, txns)
	m["proc.bytes_alloc_per_txn"] = ratio(float64(t.allocBytes), txns)
	m["proc.gc_cycles_per_s"] = ratio(float64(t.gcCycles), t.wall.Seconds())
	m["proc.heap_end_mb"] = float64(t.heapEnd) / (1 << 20)
	m["proc.heap_growth_bytes_per_txn"] = ratio(float64(heapEnd)-float64(heapStart), float64(committed))

	m["harness.trace_overhead_ratio"] = ratio(t.tps(), untraced)
	m["harness.drift_ratio"] = ratio(u2.tps(), u1.tps())
	m["harness.rep_spread"] = spread([]float64{u1.tps(), u2.tps()})
	m["harness.self_us_per_txn"] = ratio(float64(txnNanos-opNanos)/1e3, txns)

	for _, def := range perLayerMetrics {
		if _, ok := m[def.name]; !ok {
			m[def.name] = 0 // the workload has no such layer
		}
		out.samples[def.name] = t.committed
	}
	return out, nil
}

// startPinger pings the deployment's wire client every pingPeriod from its
// own goroutine, appending round-trip times to *rtts. The returned function
// stops it and waits for it to exit; only then may *rtts be read.
func startPinger(d *deployment, rtts *[]int64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(pingPeriod)
		defer tick.Stop()
		ctx := context.Background()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				start := time.Now()
				if err := d.remote.Ping(ctx); err == nil && len(*rtts) < cap(*rtts) {
					*rtts = append(*rtts, int64(time.Since(start)))
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
