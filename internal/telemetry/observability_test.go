package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// --- flight-recorder journal ---

func TestJournalRecordAndSnapshot(t *testing.T) {
	j := NewJournal(JournalOptions{Capacity: 8})
	j.Record(EventNodeKill, "node-1", "", "standby_available", "true")
	j.Record(EventPromotion, "node-4", "", "replaces", "node-1")
	j.Record(EventTxnShed, "node-2", "trace-7", "reason", "admission_queue")

	all := j.Snapshot(EventFilter{})
	if len(all) != 3 {
		t.Fatalf("snapshot = %d events, want 3", len(all))
	}
	// Newest first, monotonically increasing seq.
	if all[0].Type != EventTxnShed || all[2].Type != EventNodeKill {
		t.Fatalf("snapshot order wrong: %+v", all)
	}
	if all[0].Seq <= all[1].Seq || all[1].Seq <= all[2].Seq {
		t.Fatalf("seq not monotonic: %d %d %d", all[0].Seq, all[1].Seq, all[2].Seq)
	}
	if all[0].TraceID != "trace-7" || all[0].Attr("reason") != "admission_queue" {
		t.Fatalf("attrs lost: %+v", all[0])
	}

	byType := j.Snapshot(EventFilter{Type: EventPromotion})
	if len(byType) != 1 || byType[0].Node != "node-4" {
		t.Fatalf("type filter = %+v", byType)
	}
	byNode := j.Snapshot(EventFilter{Node: "node-2"})
	if len(byNode) != 1 || byNode[0].Type != EventTxnShed {
		t.Fatalf("node filter = %+v", byNode)
	}
	limited := j.Snapshot(EventFilter{Limit: 2})
	if len(limited) != 2 || limited[0].Type != EventTxnShed {
		t.Fatalf("limit filter = %+v", limited)
	}
}

func TestJournalEviction(t *testing.T) {
	j := NewJournal(JournalOptions{Capacity: 4})
	for i := 0; i < 10; i++ {
		j.Record(EventCompaction, "node-1", "")
	}
	if got := len(j.Snapshot(EventFilter{})); got != 4 {
		t.Fatalf("ring holds %d, want 4", got)
	}
	recorded, evicted := j.Stats()
	if recorded != 10 || evicted != 6 {
		t.Fatalf("recorded=%d evicted=%d, want 10/6", recorded, evicted)
	}
	// The survivors are the newest four.
	if newest := j.Snapshot(EventFilter{})[0]; newest.Seq != 10 {
		t.Fatalf("newest seq = %d, want 10", newest.Seq)
	}
}

func TestJournalDeterministicDumpExcludesWall(t *testing.T) {
	build := func() *Journal {
		j := NewJournal(JournalOptions{})
		j.Record(EventCheckpointWritten, "node-1", "", "entries", "12")
		j.Record(EventPromotion, "node-2", "", "replaces", "node-1")
		return j
	}
	a := build()
	time.Sleep(2 * time.Millisecond) // wall clocks differ between builds
	b := build()
	if !bytes.Equal(a.DumpDeterministic(), b.DumpDeterministic()) {
		t.Fatalf("deterministic dumps differ:\n%s\n%s", a.DumpDeterministic(), b.DumpDeterministic())
	}
	if strings.Contains(string(a.DumpDeterministic()), "wall") {
		t.Fatal("deterministic dump leaks the wall clock")
	}
	// The HTTP/full form does carry the wall clock.
	var ev struct {
		Wall time.Time `json:"wall"`
	}
	full, _ := json.Marshal(a.Snapshot(EventFilter{})[0])
	if err := json.Unmarshal(full, &ev); err != nil || ev.Wall.IsZero() {
		t.Fatalf("full event form missing wall: %s (%v)", full, err)
	}
}

func TestJournalDumpToFile(t *testing.T) {
	j := NewJournal(JournalOptions{})
	j.Record(EventNodeKill, "node-1", "")
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := j.DumpToFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(data), string(EventNodeKill)) {
		t.Fatalf("dump file = %q, %v", data, err)
	}
}

func TestJournalHandler(t *testing.T) {
	j := NewJournal(JournalOptions{})
	j.Record(EventNodeKill, "node-3", "", "reason", "test")
	j.Record(EventPromotion, "node-4", "", "replaces", "node-3")

	rr := httptest.NewRecorder()
	j.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/events?type=node_kill", nil))
	var payload struct {
		Count  int     `json:"count"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("bad /events JSON: %v", err)
	}
	if payload.Count != 1 || payload.Events[0].Type != EventNodeKill {
		t.Fatalf("/events payload = %+v", payload)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(EventNodeKill, "n", "")
	if j.Snapshot(EventFilter{}) != nil {
		t.Fatal("nil journal snapshot non-nil")
	}
	if d := j.DumpDeterministic(); len(d) != 0 {
		t.Fatalf("nil journal dump = %q", d)
	}
}

// --- SLO burn-rate engine ---

func TestSLOBurnRateVerdicts(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	var bad, total uint64
	e := NewSLOEngine(SLOOptions{Now: clock})
	e.AddObjective(Objective{
		Name: "err_ratio", Target: 0.99,
		SLI: RatioSLI(func() uint64 { return bad }, func() uint64 { return total }),
	})

	// No samples yet: no_data.
	if h := e.Evaluate(); h[0].Verdict != "no_data" {
		t.Fatalf("verdict = %q, want no_data", h[0].Verdict)
	}

	// Healthy traffic over 7 hours of ticks: ok.
	e.Tick()
	for i := 0; i < 7*6; i++ {
		now = now.Add(10 * time.Minute)
		total += 1000
		e.Tick()
	}
	if h := e.Evaluate(); h[0].Verdict != "ok" {
		t.Fatalf("healthy verdict = %q, want ok (%+v)", h[0].Verdict, h[0])
	}

	// Hard failure burst: 50% errors for over both fast windows' spans
	// burns far past 14.4x in the short AND long window: page.
	for i := 0; i < 12; i++ {
		now = now.Add(10 * time.Minute)
		total += 1000
		bad += 500
		e.Tick()
	}
	h := e.Evaluate()
	if h[0].Verdict != "page" {
		t.Fatalf("burning verdict = %q, want page (%+v)", h[0].Verdict, h[0])
	}
	if h[0].BudgetRemaining >= 1 {
		t.Fatalf("budget remaining = %v, want < 1", h[0].BudgetRemaining)
	}
	if len(h[0].Burn) == 0 {
		t.Fatal("no per-window burn rates reported")
	}
}

func TestSLOLatencySLI(t *testing.T) {
	h := NewHistogram(LogBuckets(time.Millisecond, 10*time.Second, 2))
	for i := 0; i < 99; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(2 * time.Second) // one slow commit
	sli := LatencySLI(h.Snapshot, 100*time.Millisecond)
	bad, total := sli()
	if total != 100 || bad != 1 {
		t.Fatalf("latency SLI = bad %v / total %v, want 1/100", bad, total)
	}
}

func TestSLOHandler(t *testing.T) {
	now := time.Unix(1000, 0)
	var bad, total uint64
	e := NewSLOEngine(SLOOptions{Now: func() time.Time { return now }})
	e.AddObjective(Objective{
		Name: "err_ratio", Target: 0.99,
		SLI: RatioSLI(func() uint64 { return bad }, func() uint64 { return total }),
	})
	e.Tick()
	for i := 0; i < 7*6; i++ {
		now = now.Add(10 * time.Minute)
		total += 1000
		bad += 500 // catastrophic from the start
		e.Tick()
	}
	rr := httptest.NewRecorder()
	e.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 503 {
		t.Fatalf("/healthz status = %d, want 503 while paging", rr.Code)
	}
	var payload struct {
		Status     string `json:"status"`
		Objectives []ObjectiveHealth
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("bad /healthz JSON: %v", err)
	}
	if payload.Status != "page" {
		t.Fatalf("/healthz overall = %q, want page", payload.Status)
	}
}

func TestSLOEngineNilAndEmpty(t *testing.T) {
	var e *SLOEngine
	e.Tick()
	if e.Evaluate() != nil {
		t.Fatal("nil engine evaluated non-nil")
	}
	rr := httptest.NewRecorder()
	NewSLOEngine(SLOOptions{}).Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/healthz", nil))
	if rr.Code != 200 {
		t.Fatalf("empty engine /healthz = %d, want 200", rr.Code)
	}
}

// --- trace collector stitching ---

func TestCollectorStitchesAcrossNodes(t *testing.T) {
	c := NewTraceCollector(0)
	base := time.Unix(2000, 0)
	c.ForwardTrace(TraceRecord{
		TraceID: "tr-1", TxID: "tx-9", Node: "node-a", Start: base,
		Micros: 5000, Status: "committed", Kept: "client",
		Spans: []SpanRecord{{Name: "node.commit", StartMicros: 100, Micros: 400}},
	})
	c.ForwardTrace(TraceRecord{
		TraceID: "tr-1", Node: "faultmgr", Start: base.Add(2 * time.Millisecond),
		Status: "faultmgr.recover", Kept: KeptForeign,
		Spans: []SpanRecord{{Name: "faultmgr.recover", StartMicros: 0, Micros: 10}},
	})
	c.ForwardTrace(TraceRecord{
		TraceID: "tr-1", Node: "node-b", Start: base.Add(3 * time.Millisecond),
		Status: "multicast.delivery", Kept: KeptForeign,
		Spans: []SpanRecord{{Name: "multicast.delivery", StartMicros: 0, Micros: 20}},
	})

	st, ok := c.Lookup("tr-1")
	if !ok {
		t.Fatal("trace not found")
	}
	if want := []string{"faultmgr", "node-a", "node-b"}; len(st.Nodes) != 3 ||
		st.Nodes[0] != want[0] || st.Nodes[1] != want[1] || st.Nodes[2] != want[2] {
		t.Fatalf("nodes = %v, want %v", st.Nodes, want)
	}
	if st.TxID != "tx-9" || st.Status != "committed" {
		t.Fatalf("owner fields not taken from the non-foreign segment: %+v", st)
	}
	if !st.Start.Equal(base) {
		t.Fatalf("start = %v, want earliest segment %v", st.Start, base)
	}
	if len(st.Spans) != 3 {
		t.Fatalf("flattened spans = %d, want 3", len(st.Spans))
	}
	// Spans are re-based on the stitched timeline and node-attributed,
	// in start order.
	for i, sp := range st.Spans {
		if sp.Attrs["node"] == "" {
			t.Fatalf("span %d missing node attr: %+v", i, sp)
		}
		if i > 0 && sp.StartMicros < st.Spans[i-1].StartMicros {
			t.Fatalf("spans out of timeline order: %+v", st.Spans)
		}
	}
	// The foreign delivery span starts 3ms after the trace start.
	last := st.Spans[len(st.Spans)-1]
	if last.Name != "multicast.delivery" || last.StartMicros != 3000 {
		t.Fatalf("delivery span not re-based: %+v", last)
	}
}

func TestCollectorEvictsOldestTrace(t *testing.T) {
	c := NewTraceCollector(2)
	for _, id := range []string{"tr-1", "tr-2", "tr-3"} {
		c.ForwardTrace(TraceRecord{TraceID: id, Node: "n", Kept: "client"})
	}
	if _, ok := c.Lookup("tr-1"); ok {
		t.Fatal("oldest trace not evicted")
	}
	if _, ok := c.Lookup("tr-3"); !ok {
		t.Fatal("newest trace missing")
	}
	forwarded, _, evicted := c.Stats()
	if forwarded != 3 || evicted != 1 {
		t.Fatalf("forwarded=%d evicted=%d, want 3/1", forwarded, evicted)
	}
}

func TestCollectorHandler(t *testing.T) {
	c := NewTraceCollector(0)
	c.ForwardTrace(TraceRecord{TraceID: "tr-1", Node: "node-a", Kept: "client"})
	c.ForwardTrace(TraceRecord{TraceID: "tr-1", Node: "node-b", Kept: KeptForeign})

	rr := httptest.NewRecorder()
	c.Handler("node-a", nil).ServeHTTP(rr, httptest.NewRequest("GET", "/traces?trace_id=tr-1", nil))
	var payload struct {
		Count  int             `json:"count"`
		Traces []StitchedTrace `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatalf("bad /traces JSON: %v", err)
	}
	if payload.Count != 1 || len(payload.Traces[0].Nodes) != 2 {
		t.Fatalf("/traces payload = %+v", payload)
	}
}

// --- byte-bounded tracer ring + foreign forwarding ---

func TestTracerByteBudgetEvictsOldest(t *testing.T) {
	tr := NewTracer(TracerOptions{
		Node: "n1", Capacity: 64, SlowThreshold: -1, SampleEvery: -1,
		MaxBytes: 600, // a couple of small traces' worth
	})
	for i := 0; i < 10; i++ {
		tc := tr.Begin("tx", TraceContext{ID: MintTraceID("t"), Sampled: true})
		tc.Finish("committed")
	}
	recs := tr.Snapshot()
	if len(recs) >= 10 || len(recs) == 0 {
		t.Fatalf("byte budget retained %d of 10", len(recs))
	}
	if tr.Evicted() == 0 {
		t.Fatal("no evictions counted")
	}
	// Newest is always retained, even alone over budget.
	tiny := NewTracer(TracerOptions{Node: "n1", SlowThreshold: -1, SampleEvery: -1, MaxBytes: 1})
	tc := tiny.Begin("tx-big", TraceContext{ID: "big", Sampled: true})
	tc.Finish("committed")
	if recs := tiny.Snapshot(); len(recs) != 1 || recs[0].TraceID != "big" {
		t.Fatalf("newest trace not retained under tiny budget: %+v", recs)
	}
}

func TestTracerForwardsToSink(t *testing.T) {
	c := NewTraceCollector(0)
	tr := NewTracer(TracerOptions{Node: "node-a", SlowThreshold: -1, SampleEvery: -1})
	tr.SetSink(c)

	// A kept trace is forwarded...
	tc := tr.Begin("tx-1", TraceContext{ID: "tr-fwd", Sampled: true})
	tc.Finish("committed")
	if _, ok := c.Lookup("tr-fwd"); !ok {
		t.Fatal("kept trace not forwarded to sink")
	}
	// ...a dropped one is not...
	td := tr.Begin("tx-2", TraceContext{})
	td.Finish("committed")
	if forwarded, _, _ := c.Stats(); forwarded != 1 {
		t.Fatalf("forwarded = %d, want 1", forwarded)
	}
	// ...and a foreign span joins the same stitched trace without
	// entering the local ring.
	tr.ForeignSpan("tr-fwd", "multicast.delivery", time.Now(), time.Millisecond,
		map[string]string{"from": "node-b"})
	st, _ := c.Lookup("tr-fwd")
	if len(st.Segments) != 2 {
		t.Fatalf("foreign span did not stitch: %+v", st)
	}
	if len(tr.Snapshot()) != 1 {
		t.Fatal("foreign span leaked into the local ring")
	}
}
