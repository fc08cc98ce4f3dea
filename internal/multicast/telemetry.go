package multicast

import (
	"strconv"
	"time"

	"aft/internal/telemetry"
)

// RegisterTelemetry publishes the bus traffic counters — the fan-out cost
// and pruning savings the §4.1 ablation measures — under aft_multicast_*.
func (b *Bus) RegisterTelemetry(reg *telemetry.Registry) {
	if b == nil {
		return
	}
	m := &b.metrics
	reg.Register(func(e *telemetry.Emitter) {
		s := m.Snapshot()
		e.Counter("aft_multicast_broadcast_total",
			"Commit records sent to at least one peer.", uint64(s.Broadcast))
		e.Counter("aft_multicast_deliveries_total",
			"Record-by-peer deliveries (the fan-out cost).", uint64(s.Deliveries))
		e.Counter("aft_multicast_pruned_total",
			"Records suppressed by supersedence pruning.", uint64(s.Pruned))
		e.Counter("aft_multicast_rounds_total",
			"Multicast flush rounds.", uint64(s.Rounds))
		e.Gauge("aft_multicast_peers", "Registered bus peers.", float64(len(b.Peers())))
	})
}

// SetTracer attaches a tracer to the multicaster: each broadcast round
// becomes a system trace with a multicast.deliver span, retained under the
// tracer's self-sample/slow policy. Call before Start; a nil tracer (the
// default) keeps rounds untraced.
func (m *Multicaster) SetTracer(tr *telemetry.Tracer) {
	m.mu.Lock()
	m.tracer = tr
	m.mu.Unlock()
}

// flushTraced runs one broadcast round under a system trace (or plain,
// with no tracer attached).
func (m *Multicaster) flushTraced() int {
	m.mu.Lock()
	tr := m.tracer
	m.mu.Unlock()
	if tr == nil {
		return m.round()
	}
	t := tr.BeginSystem("multicast.round")
	start := time.Now()
	n := m.round()
	t.AddSpan("multicast.deliver", start, time.Since(start),
		map[string]string{"sent": strconv.Itoa(n)})
	t.Finish("ok")
	return n
}
