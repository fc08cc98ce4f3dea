package stats

// Helpers only this package's tests use.

import (
	"sync"
	"time"
)

// Folded reports whether the recorder has switched to histogram mode.
func (r *Recorder) Folded() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hist != nil
}

// Timeline bins events into fixed-width buckets to produce a
// throughput-over-time series. It is safe for concurrent use.
type Timeline struct {
	mu     sync.Mutex
	width  time.Duration
	counts []int64
	start  time.Time
}

// NewTimeline returns a Timeline with the given bucket width, anchored at
// start.
func NewTimeline(start time.Time, width time.Duration) *Timeline {
	if width <= 0 {
		width = time.Second
	}
	return &Timeline{width: width, start: start}
}

// Add records one event at time t. Events before start are clamped into the
// first bucket.
func (tl *Timeline) Add(t time.Time) {
	idx := int(t.Sub(tl.start) / tl.width)
	if idx < 0 {
		idx = 0
	}
	tl.mu.Lock()
	for len(tl.counts) <= idx {
		tl.counts = append(tl.counts, 0)
	}
	tl.counts[idx]++
	tl.mu.Unlock()
}

// Point is one bucket of a Timeline expressed as a rate.
type Point struct {
	// Offset is the bucket's start offset from the timeline anchor.
	Offset time.Duration
	// Rate is events per second within the bucket.
	Rate float64
}

// Series returns the timeline as per-second rates.
func (tl *Timeline) Series() []Point {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	out := make([]Point, len(tl.counts))
	secs := tl.width.Seconds()
	for i, c := range tl.counts {
		out[i] = Point{Offset: time.Duration(i) * tl.width, Rate: float64(c) / secs}
	}
	return out
}
