// Package stats provides the measurement plumbing for the benchmark
// harness: latency recorders with percentile summaries (the paper reports
// median and 99th percentile throughout §6) and event counters.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"aft/internal/telemetry"
)

// foldLimit is the exact-sample ceiling: a Recorder that collects more
// samples than this folds them into a fixed-bucket histogram and stops
// growing. Short runs (every test, most benchmarks) stay in exact mode and
// report true percentiles; long soak runs get bounded memory at the cost
// of bucket-resolution percentiles (~5% relative error from the log-bucket
// layout).
const foldLimit = 1 << 17

// Recorder accumulates latency samples. It is safe for concurrent use.
// Memory is bounded: past foldLimit samples it switches to histogram mode
// (see foldLimit).
type Recorder struct {
	mu      sync.Mutex
	samples []time.Duration
	// Histogram mode, active once hist != nil. The exact min/max/sum/count
	// are still tracked so only the percentiles become approximate.
	hist     *telemetry.Histogram
	count    int
	sum      time.Duration
	min, max time.Duration
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// foldBuckets is the histogram-mode layout: 10µs to 30s at 8% steps
// (~160 buckets), fine enough that a folded p99 lands within one step of
// the exact one.
func foldBuckets() []float64 {
	return telemetry.LogBuckets(10*time.Microsecond, 30*time.Second, 1.08)
}

// Record adds one latency sample.
func (r *Recorder) Record(d time.Duration) {
	r.mu.Lock()
	if r.hist == nil {
		r.samples = append(r.samples, d)
		if len(r.samples) < foldLimit {
			r.mu.Unlock()
			return
		}
		r.foldLocked()
		r.mu.Unlock()
		return
	}
	r.count++
	r.sum += d
	if d < r.min {
		r.min = d
	}
	if d > r.max {
		r.max = d
	}
	r.hist.Observe(d)
	r.mu.Unlock()
}

// foldLocked moves every exact sample into the bounded histogram. Callers
// hold r.mu.
func (r *Recorder) foldLocked() {
	r.hist = telemetry.NewHistogram(foldBuckets())
	r.min, r.max = r.samples[0], r.samples[0]
	for _, d := range r.samples {
		r.hist.Observe(d)
		r.sum += d
		if d < r.min {
			r.min = d
		}
		if d > r.max {
			r.max = d
		}
	}
	r.count = len(r.samples)
	r.samples = nil
}

// Count returns the number of recorded samples.
func (r *Recorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hist != nil {
		return r.count
	}
	return len(r.samples)
}

// Summary is a percentile digest of a set of latency samples.
type Summary struct {
	Count  int
	Median time.Duration
	P95    time.Duration
	P99    time.Duration
	Mean   time.Duration
	Min    time.Duration
	Max    time.Duration
}

// Summarize computes the digest of everything recorded so far. In exact
// mode the percentiles are true nearest-rank values; in histogram mode
// (see foldLimit) they come from the bucket layout while count, mean, min
// and max stay exact.
func (r *Recorder) Summarize() Summary {
	r.mu.Lock()
	if r.hist != nil {
		h, count, sum, min, max := r.hist, r.count, r.sum, r.min, r.max
		r.mu.Unlock()
		snap := h.Snapshot()
		return Summary{
			Count:  count,
			Median: snap.Quantile(0.50),
			P95:    snap.Quantile(0.95),
			P99:    snap.Quantile(0.99),
			Mean:   sum / time.Duration(count),
			Min:    min,
			Max:    max,
		}
	}
	s := append([]time.Duration(nil), r.samples...)
	r.mu.Unlock()
	return Summarize(s)
}

// Summarize computes a percentile digest of samples. An empty input yields a
// zero Summary.
func Summarize(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum time.Duration
	for _, v := range s {
		sum += v
	}
	return Summary{
		Count:  len(s),
		Median: Percentile(s, 50),
		P95:    Percentile(s, 95),
		P99:    Percentile(s, 99),
		Mean:   sum / time.Duration(len(s)),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) of sorted samples
// using nearest-rank. It panics if sorted is empty.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Millis renders d as fractional milliseconds, the unit used in the paper's
// latency figures.
func Millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// String renders the summary in "median/p99" form.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d median=%.1fms p99=%.1fms", s.Count, Millis(s.Median), Millis(s.P99))
}

// Counter is a concurrency-safe monotonic event counter.
type Counter struct {
	mu sync.Mutex
	n  int64
}

// Inc adds delta to the counter.
func (c *Counter) Inc(delta int64) {
	c.mu.Lock()
	c.n += delta
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
