package telemetry

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceContext is the portable identity of a trace: the ID minted by the
// originating client and whether that client asked for the trace to be
// retained. It is the only trace state that crosses the wire.
type TraceContext struct {
	ID      string
	Sampled bool
}

// traceEpoch disambiguates locally minted IDs across process restarts.
var traceEpoch = time.Now().UnixNano()

var traceSeq atomic.Uint64

// MintTraceID returns a new process-unique trace ID with the given
// prefix (typically a client or node name). IDs are cheap — an atomic
// increment — and deliberately avoid crypto randomness so traced runs
// stay deterministic apart from the epoch stamp.
func MintTraceID(prefix string) string {
	n := traceSeq.Add(1)
	return prefix + "-" + strconv.FormatInt(traceEpoch%0xfffff, 36) + "-" + strconv.FormatUint(n, 36)
}

// SpanRecord is one completed span within a trace, offsets relative to
// the trace start so a reader can lay spans on a single timeline.
type SpanRecord struct {
	Name        string            `json:"name"`
	StartMicros int64             `json:"start_us"`
	Micros      int64             `json:"duration_us"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// TraceRecord is one finished trace as served by /traces.
type TraceRecord struct {
	TraceID string       `json:"trace_id"`
	TxID    string       `json:"tx_id,omitempty"`
	Node    string       `json:"node"`
	Start   time.Time    `json:"start"`
	Micros  int64        `json:"duration_us"`
	Status  string       `json:"status"`
	Kept    string       `json:"kept"` // client | self | slow | foreign
	Spans   []SpanRecord `json:"spans"`
}

// KeptForeign marks a TraceRecord that is not a locally owned trace but
// a fragment of work this process performed on behalf of a trace rooted
// elsewhere — a multicast delivery merged on a peer, a fault-manager
// recovery of another node's commit record. Foreign fragments exist
// only to be stitched; they bypass the local ring and go straight to
// the sink.
const KeptForeign = "foreign"

// recBytes approximates a TraceRecord's resident size for the tracer's
// byte bound: struct overhead plus every retained string. Exactness
// does not matter — the bound exists so a burst of span-heavy traces
// cannot balloon the ring's memory past the operator's budget.
func recBytes(rec TraceRecord) int64 {
	b := int64(128 + len(rec.TraceID) + len(rec.TxID) + len(rec.Node) + len(rec.Status) + len(rec.Kept))
	for _, sp := range rec.Spans {
		b += int64(64 + len(sp.Name))
		for k, v := range sp.Attrs {
			b += int64(32 + len(k) + len(v))
		}
	}
	return b
}

// Trace accumulates spans for one transaction (or one system activity).
// A nil *Trace is fully inert: every method is safe and free, so
// untraced transactions pay only nil checks.
type Trace struct {
	tracer  *Tracer
	id      string
	txID    string
	begin   time.Time
	sampled bool // retain regardless of duration

	mu       sync.Mutex
	spans    []SpanRecord
	finished bool
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SampledID returns the trace ID when the originating client asked for
// the trace to be retained, "" otherwise (including nil). Commit
// records carry this so trace identity travels with the record through
// multicast delivery and fault-manager recovery — only client-sampled
// traces pay the extra bytes.
func (t *Trace) SampledID() string {
	if t == nil || !t.sampled {
		return ""
	}
	return t.id
}

// ActiveSpan is an open span; End closes it. Nil-safe.
type ActiveSpan struct {
	t     *Trace
	name  string
	start time.Time
	attrs map[string]string
}

// StartSpan opens a span named name. Attrs may be added before End.
func (t *Trace) StartSpan(name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, name: name, start: time.Now()}
}

// Annotate attaches a key/value attribute to the span.
func (s *ActiveSpan) Annotate(k, v string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 2)
	}
	s.attrs[k] = v
}

// End closes the span and records it into the trace.
func (s *ActiveSpan) End() {
	if s == nil || s.t == nil {
		return
	}
	s.t.AddSpan(s.name, s.start, time.Since(s.start), s.attrs)
}

// AddSpan records a completed span directly — used where the duration
// was measured elsewhere (e.g. a peer's multicast delivery attributed
// back to the committing transaction's trace). Nil-safe.
func (t *Trace) AddSpan(name string, start time.Time, d time.Duration, attrs map[string]string) {
	if t == nil {
		return
	}
	rec := SpanRecord{
		Name:        name,
		StartMicros: start.Sub(t.begin).Microseconds(),
		Micros:      d.Microseconds(),
		Attrs:       attrs,
	}
	t.mu.Lock()
	if !t.finished && len(t.spans) < maxSpansPerTrace {
		t.spans = append(t.spans, rec)
	}
	t.mu.Unlock()
}

// maxSpansPerTrace bounds a single trace's memory (a retrying txn could
// otherwise accumulate spans without limit).
const maxSpansPerTrace = 256

// Finish completes the trace with a status ("committed", "aborted",
// an error string, ...). The tracer retains it if the client sampled it,
// the tracer self-sampled it, or it ran longer than the slow threshold.
// Nil-safe and idempotent.
func (t *Trace) Finish(status string) {
	if t == nil || t.tracer == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	spans := t.spans
	t.mu.Unlock()

	dur := time.Since(t.begin)
	kept := ""
	switch {
	case t.sampled:
		kept = "client"
	case t.tracer.selfSampled(t.id):
		kept = "self"
	case t.tracer.slow > 0 && dur >= t.tracer.slow:
		kept = "slow"
	default:
		t.tracer.dropped.Add(1)
		return
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartMicros < spans[j].StartMicros })
	rec := TraceRecord{
		TraceID: t.id,
		TxID:    t.txID,
		Node:    t.tracer.node,
		Start:   t.begin,
		Micros:  dur.Microseconds(),
		Status:  status,
		Kept:    kept,
		Spans:   spans,
	}
	t.tracer.keep(rec)
	if sink := t.tracer.loadSink(); sink != nil {
		sink.ForwardTrace(rec)
	}
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Node names the owning process in retained traces.
	Node string
	// Capacity bounds the ring buffer (default 256).
	Capacity int
	// SlowThreshold keeps any trace at least this long even when
	// unsampled (always-sample-slow). Default 250ms; <0 disables.
	SlowThreshold time.Duration
	// SampleEvery self-samples one of every N traces so /traces has
	// content without client cooperation. Default 64; <0 disables.
	SampleEvery int
	// MaxBytes additionally bounds the ring by approximate resident
	// bytes: when a kept trace would push the ring past the budget, the
	// oldest traces are evicted first (and counted). 0 disables the
	// byte bound (the entry capacity still applies). The newest trace
	// is always retained, even when it alone exceeds the budget.
	MaxBytes int64
}

// Tracer mints and retains traces in a bounded ring buffer. A nil
// *Tracer disables tracing: Begin returns a nil *Trace and every span
// call on it is free.
type Tracer struct {
	node     string
	cap      int
	slow     time.Duration
	step     uint64
	maxBytes int64

	seq     atomic.Uint64
	started atomic.Uint64
	kept    atomic.Uint64
	dropped atomic.Uint64
	evicted atomic.Uint64
	foreign atomic.Uint64

	sink atomic.Value // sinkBox

	mu    sync.Mutex
	ring  []TraceRecord
	next  int
	n     int
	bytes int64
}

// sinkBox wraps a SpanSink so atomic.Value sees one concrete type even
// when callers hand in different sink implementations.
type sinkBox struct{ s SpanSink }

// SetSink directs every subsequently retained trace (and every foreign
// span) to sink — typically a cluster-wide TraceCollector. Safe to call
// concurrently with tracing; nil-safe.
func (tr *Tracer) SetSink(s SpanSink) {
	if tr == nil {
		return
	}
	tr.sink.Store(sinkBox{s})
}

func (tr *Tracer) loadSink() SpanSink {
	if tr == nil {
		return nil
	}
	box, _ := tr.sink.Load().(sinkBox)
	return box.s
}

// NewTracer builds a tracer; see TracerOptions for defaults.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	if opts.SlowThreshold == 0 {
		opts.SlowThreshold = 250 * time.Millisecond
	}
	if opts.SlowThreshold < 0 {
		opts.SlowThreshold = 0
	}
	if opts.SampleEvery == 0 {
		opts.SampleEvery = 64
	}
	step := uint64(0)
	if opts.SampleEvery > 0 {
		step = uint64(opts.SampleEvery)
	}
	return &Tracer{
		node:     opts.Node,
		cap:      opts.Capacity,
		slow:     opts.SlowThreshold,
		step:     step,
		maxBytes: opts.MaxBytes,
		ring:     make([]TraceRecord, opts.Capacity),
	}
}

// Begin opens a trace for txID. tc carries the client's trace context;
// a zero tc means the server mints an ID itself. Returns nil on a nil
// tracer.
func (tr *Tracer) Begin(txID string, tc TraceContext) *Trace {
	if tr == nil {
		return nil
	}
	tr.started.Add(1)
	id := tc.ID
	if id == "" {
		id = MintTraceID(tr.node)
	}
	tr.seq.Add(1)
	return &Trace{
		tracer:  tr,
		id:      id,
		txID:    txID,
		begin:   time.Now(),
		sampled: tc.Sampled,
	}
}

// BeginSystem opens a trace for background activity (multicast rounds,
// fault-manager sweeps) that has no transaction. Retention follows the
// same self-sample/slow policy as transactions.
func (tr *Tracer) BeginSystem(name string) *Trace {
	if tr == nil {
		return nil
	}
	t := tr.Begin("", TraceContext{})
	t.txID = name
	return t
}

// selfSampled keeps 1-in-step traces deterministically off the sequence
// counter. The trace's own ID is unused so client-minted and
// server-minted traces sample at the same rate.
func (tr *Tracer) selfSampled(string) bool {
	if tr.step == 0 {
		return false
	}
	return tr.seq.Load()%tr.step == 0
}

func (tr *Tracer) keep(rec TraceRecord) {
	tr.kept.Add(1)
	rb := recBytes(rec)
	tr.mu.Lock()
	if tr.maxBytes > 0 {
		for tr.n > 0 && tr.bytes+rb > tr.maxBytes {
			tr.evictOldestLocked()
		}
	}
	if tr.n == tr.cap {
		tr.evictOldestLocked()
	}
	tr.ring[tr.next] = rec
	tr.next = (tr.next + 1) % tr.cap
	tr.n++
	tr.bytes += rb
	tr.mu.Unlock()
}

// evictOldestLocked drops the oldest retained trace (entry cap reached
// or byte budget exceeded) and counts the eviction.
func (tr *Tracer) evictOldestLocked() {
	idx := (tr.next - tr.n + tr.cap*2) % tr.cap
	tr.bytes -= recBytes(tr.ring[idx])
	tr.ring[idx] = TraceRecord{}
	tr.n--
	tr.evicted.Add(1)
}

// ForeignSpan forwards a single completed span attributed to this
// process but belonging to a trace rooted elsewhere — the peer-side
// half of a multicast delivery, a fault-manager recovery of another
// node's sampled commit. The span travels straight to the sink as a
// one-span foreign TraceRecord; without a sink (or a trace ID) the call
// is free, so untraced hot paths pay only the two nil checks.
func (tr *Tracer) ForeignSpan(traceID, name string, start time.Time, d time.Duration, attrs map[string]string) {
	if tr == nil || traceID == "" {
		return
	}
	sink := tr.loadSink()
	if sink == nil {
		return
	}
	tr.foreign.Add(1)
	sink.ForwardTrace(TraceRecord{
		TraceID: traceID,
		Node:    tr.node,
		Start:   start,
		Micros:  d.Microseconds(),
		Status:  name,
		Kept:    KeptForeign,
		Spans:   []SpanRecord{{Name: name, Micros: d.Microseconds(), Attrs: attrs}},
	})
}

// Snapshot returns retained traces, newest first.
func (tr *Tracer) Snapshot() []TraceRecord {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]TraceRecord, 0, tr.n)
	for i := 0; i < tr.n; i++ {
		idx := (tr.next - 1 - i + tr.cap*2) % tr.cap
		out = append(out, tr.ring[idx])
	}
	return out
}

// Evicted reports how many retained traces the ring has evicted
// oldest-first (entry cap plus byte budget).
func (tr *Tracer) Evicted() uint64 {
	if tr == nil {
		return 0
	}
	return tr.evicted.Load()
}

// Stats reports tracer volume counters.
func (tr *Tracer) Stats() (started, kept, dropped uint64) {
	if tr == nil {
		return 0, 0, 0
	}
	return tr.started.Load(), tr.kept.Load(), tr.dropped.Load()
}

// RegisterTelemetry publishes the tracer's own volume counters.
func (tr *Tracer) RegisterTelemetry(reg *Registry) {
	if tr == nil || reg == nil {
		return
	}
	reg.Register(tr.EmitTelemetry)
}

// EmitTelemetry emits the tracer's volume counters into one scrape.
// Exposed separately so a cluster can emit per CURRENT member (tracers
// of killed nodes disappear without re-registering). Nil-safe.
func (tr *Tracer) EmitTelemetry(e *Emitter) {
	if tr == nil {
		return
	}
	started, kept, dropped := tr.Stats()
	e.Counter("aft_traces_started_total", "Traces opened (one per transaction when tracing is enabled).", started, "node", tr.node)
	e.Counter("aft_traces_kept_total", "Traces retained into the ring buffer.", kept, "node", tr.node)
	e.Counter("aft_traces_dropped_total", "Finished traces discarded by sampling policy.", dropped, "node", tr.node)
	e.Counter("aft_trace_evicted_total", "Retained traces evicted oldest-first by the ring's entry or byte bound.", tr.evicted.Load(), "node", tr.node)
	e.Counter("aft_traces_foreign_total", "Foreign spans forwarded on behalf of traces rooted on other processes.", tr.foreign.Load(), "node", tr.node)
}

// tracesPayload is the stable JSON schema served at /traces.
type tracesPayload struct {
	Node    string        `json:"node"`
	Count   int           `json:"count"`
	Started uint64        `json:"started"`
	Kept    uint64        `json:"kept"`
	Dropped uint64        `json:"dropped"`
	Traces  []TraceRecord `json:"traces"`
}

// Handler serves retained traces as JSON at /traces. Query param
// ?limit=N bounds the result (default: everything retained).
func (tr *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		recs := tr.Snapshot()
		if s := r.URL.Query().Get("limit"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n >= 0 && n < len(recs) {
				recs = recs[:n]
			}
		}
		started, kept, dropped := tr.Stats()
		node := ""
		if tr != nil {
			node = tr.node
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tracesPayload{
			Node:    node,
			Count:   len(recs),
			Started: started,
			Kept:    kept,
			Dropped: dropped,
			Traces:  recs,
		})
	})
}

// ---- context plumbing ----

type ctxKey int

const (
	ctxKeyTraceCtx ctxKey = iota
	ctxKeyTrace
)

// WithTraceContext attaches an inbound wire-level trace context (the
// portable ID + sampled flag) to ctx.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	if tc.ID == "" && !tc.Sampled {
		return ctx
	}
	return context.WithValue(ctx, ctxKeyTraceCtx, tc)
}

// TraceContextFrom extracts the wire-level trace context, if any.
func TraceContextFrom(ctx context.Context) TraceContext {
	tc, _ := ctx.Value(ctxKeyTraceCtx).(TraceContext)
	return tc
}

// WithTrace attaches an active server-side trace to ctx so lower layers
// (storage, WAL) can record spans without new parameters.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKeyTrace, t)
}

// TraceFrom extracts the active trace (nil when untraced).
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKeyTrace).(*Trace)
	return t
}

// StartSpan opens a span on the trace in ctx; returns nil (inert) when
// untraced.
func StartSpan(ctx context.Context, name string) *ActiveSpan {
	return TraceFrom(ctx).StartSpan(name)
}
