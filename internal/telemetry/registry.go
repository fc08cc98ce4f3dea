package telemetry

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name/value pair attached to a sample.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Labels builds a label list from alternating name/value strings; an odd
// trailing name is dropped.
func Labels(kv ...string) []Label {
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, Label{Name: kv[i], Value: kv[i+1]})
	}
	return out
}

// Sample is one scalar observation within a family.
type Sample struct {
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistSample is one histogram observation within a family.
type HistSample struct {
	Labels []Label           `json:"labels,omitempty"`
	Snap   HistogramSnapshot `json:"-"`

	// Digest fields mirror Snap for the JSON /statz view.
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum_seconds"`
	P50   float64 `json:"p50_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// Family groups all samples sharing one metric name.
type Family struct {
	Name    string       `json:"name"`
	Help    string       `json:"help,omitempty"`
	Type    string       `json:"type"` // counter | gauge | histogram
	Samples []Sample     `json:"samples,omitempty"`
	Hists   []HistSample `json:"histograms,omitempty"`
}

// Emitter receives samples during one scrape. Collectors call its
// methods; the registry assembles families from them.
type Emitter struct {
	families map[string]*Family
}

func (e *Emitter) family(name, help, typ string) *Family {
	f, ok := e.families[name]
	if !ok {
		f = &Family{Name: name, Help: help, Type: typ}
		e.families[name] = f
	}
	return f
}

// Counter emits one counter sample. kv is alternating label name/value
// pairs.
func (e *Emitter) Counter(name, help string, v uint64, kv ...string) {
	e.CounterFloat(name, help, float64(v), kv...)
}

// CounterFloat emits one counter sample with a fractional value (CPU
// seconds, for instance).
func (e *Emitter) CounterFloat(name, help string, v float64, kv ...string) {
	f := e.family(name, help, "counter")
	f.Samples = append(f.Samples, Sample{Labels: Labels(kv...), Value: v})
}

// Gauge emits one gauge sample.
func (e *Emitter) Gauge(name, help string, v float64, kv ...string) {
	f := e.family(name, help, "gauge")
	f.Samples = append(f.Samples, Sample{Labels: Labels(kv...), Value: v})
}

// Histogram emits one histogram snapshot.
func (e *Emitter) Histogram(name, help string, snap HistogramSnapshot, kv ...string) {
	f := e.family(name, help, "histogram")
	f.Hists = append(f.Hists, HistSample{
		Labels: Labels(kv...),
		Snap:   snap,
		Count:  snap.Count,
		Sum:    snap.Sum.Seconds(),
		P50:    snap.Quantile(0.50).Seconds(),
		P99:    snap.Quantile(0.99).Seconds(),
	})
}

// Collector is a scrape-time callback that reads a subsystem's live
// counters and emits them. Subsystems keep their existing atomics; only
// the snapshot happens here, so registration adds zero hot-path cost.
type Collector func(*Emitter)

// Registry aggregates collectors and serves them in Prometheus text
// exposition format. The zero value is unusable; use NewRegistry. A nil
// *Registry is safe to register against (no-op), which lets subsystems
// accept an optional registry without branching.
type Registry struct {
	mu         sync.RWMutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector invoked on every scrape. Nil-safe.
func (r *Registry) Register(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Gather runs every collector and returns the merged families sorted by
// name, with samples sorted by label set for deterministic output.
func (r *Registry) Gather() []*Family {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	collectors := append([]Collector(nil), r.collectors...)
	r.mu.RUnlock()
	e := &Emitter{families: make(map[string]*Family)}
	for _, c := range collectors {
		c(e)
	}
	fams := make([]*Family, 0, len(e.families))
	for _, f := range e.families {
		sort.Slice(f.Samples, func(i, j int) bool {
			return labelKey(f.Samples[i].Labels) < labelKey(f.Samples[j].Labels)
		})
		sort.Slice(f.Hists, func(i, j int) bool {
			return labelKey(f.Hists[i].Labels) < labelKey(f.Hists[j].Labels)
		})
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	return fams
}

// Expose writes the Prometheus text exposition of all families.
func (r *Registry) Expose(w *strings.Builder) {
	for _, f := range r.Gather() {
		writeFamily(w, f)
	}
}

// Handler serves /metrics in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		r.Expose(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}

func writeFamily(w *strings.Builder, f *Family) {
	if f.Help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type)
	for _, s := range f.Samples {
		w.WriteString(f.Name)
		writeLabels(w, s.Labels, "")
		w.WriteByte(' ')
		w.WriteString(formatValue(s.Value))
		w.WriteByte('\n')
	}
	for _, h := range f.Hists {
		for i, bound := range h.Snap.Bounds {
			w.WriteString(f.Name + "_bucket")
			writeLabels(w, h.Labels, formatValue(bound))
			fmt.Fprintf(w, " %d\n", h.Snap.Cumulative[i])
		}
		w.WriteString(f.Name + "_bucket")
		writeLabels(w, h.Labels, "+Inf")
		fmt.Fprintf(w, " %d\n", h.Count)
		w.WriteString(f.Name + "_sum")
		writeLabels(w, h.Labels, "")
		fmt.Fprintf(w, " %s\n", formatValue(h.Sum))
		w.WriteString(f.Name + "_count")
		writeLabels(w, h.Labels, "")
		fmt.Fprintf(w, " %d\n", h.Count)
	}
}

// writeLabels renders {a="b",...}; le, when non-empty, is appended as the
// histogram bucket bound label.
func writeLabels(w *strings.Builder, labels []Label, le string) {
	if len(labels) == 0 && le == "" {
		return
	}
	w.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(l.Name)
		w.WriteString(`="`)
		w.WriteString(escapeLabel(l.Value))
		w.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			w.WriteByte(',')
		}
		w.WriteString(`le="` + le + `"`)
	}
	w.WriteByte('}')
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

func labelKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}
