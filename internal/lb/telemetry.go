package lb

import (
	"sync/atomic"

	"aft/internal/telemetry"
)

// Metrics counts routing activity. Counters are atomic so the per-op
// affinity lookups never serialize on a metrics lock beyond the routing
// mutex they already hold.
type Metrics struct {
	Started      atomic.Int64 // transactions started (and pinned)
	Routed       atomic.Int64 // operations routed to a pinned backend
	UnknownTxns  atomic.Int64 // lookups for transactions never pinned here
	BackendsGone atomic.Int64 // lookups that hit a removed backend's tombstone
}

// MetricsSnapshot is a point-in-time copy of Metrics.
type MetricsSnapshot struct {
	Started, Routed, UnknownTxns, BackendsGone int64
}

// Snapshot returns a copy of the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{Started: m.Started.Load(), Routed: m.Routed.Load(),
		UnknownTxns: m.UnknownTxns.Load(), BackendsGone: m.BackendsGone.Load()}
}

// Metrics returns the balancer's routing counters.
func (b *Balancer) Metrics() *Metrics { return &b.metrics }

// RegisterTelemetry publishes the balancer's routing counters under
// aft_lb_*, plus the registered-backend gauges.
func (b *Balancer) RegisterTelemetry(reg *telemetry.Registry) {
	if b == nil {
		return
	}
	reg.Register(func(e *telemetry.Emitter) {
		s := b.metrics.Snapshot()
		e.Counter("aft_lb_txns_started_total",
			"Transactions started and pinned to a backend.", uint64(s.Started))
		e.Counter("aft_lb_ops_routed_total",
			"Operations routed to a pinned backend.", uint64(s.Routed))
		e.Counter("aft_lb_unknown_txns_total",
			"Lookups for transactions not pinned to this balancer.", uint64(s.UnknownTxns))
		e.Counter("aft_lb_backend_gone_total",
			"Lookups that hit a removed backend's tombstone.", uint64(s.BackendsGone))
		e.Gauge("aft_lb_backends", "Registered backends.", float64(b.Len()))
	})
}
