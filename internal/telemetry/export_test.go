package telemetry

// Helpers only this package's tests use.

import "sync/atomic"

// Counter is a monotonically increasing lock-free counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Nil-safe so disabled telemetry costs one branch.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a lock-free instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta. Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// RegisterHistogram publishes h under name on every scrape. Nil-safe.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram, kv ...string) {
	if r == nil || h == nil {
		return
	}
	r.Register(func(e *Emitter) {
		e.Histogram(name, help, h.Snapshot(), kv...)
	})
}

// NewCounter creates a counter and publishes it under name. On a nil
// registry it returns nil (whose methods are no-ops).
func (r *Registry) NewCounter(name, help string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.Register(func(e *Emitter) {
		e.Counter(name, help, c.Load(), kv...)
	})
	return c
}

// NewGauge creates a gauge and publishes it under name. On a nil
// registry it returns nil (whose methods are no-ops).
func (r *Registry) NewGauge(name, help string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.Register(func(e *Emitter) {
		e.Gauge(name, help, float64(g.Load()), kv...)
	})
	return g
}
