package telemetry

// events.go is the cluster's flight recorder: a bounded ring of typed,
// structured events — the discrete state changes an operator reaches
// for first when reconstructing an incident (sheds, spills,
// checkpoints, kills, promotions, violations). Events carry
// monotonic sequence numbers and optional trace-ID cross-links, are
// served newest-first at /events, and can be dumped deterministically
// (wall-clock excluded) so a seeded chaos campaign's journal is
// byte-identical across runs.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// EventType names one class of journal event. The set is closed and
// documented here so /events consumers can filter without guessing.
type EventType string

const (
	// EventTxnShed: admission control or the metadata-budget hard
	// ceiling turned a transaction away (ErrOverloaded).
	EventTxnShed EventType = "txn_shed"
	// EventBudgetSpill: the metadata budget evicted cold commit records
	// to storage.
	EventBudgetSpill EventType = "budget_spill"
	// EventCheckpointWritten / EventCheckpointRejected: the WAL engine
	// cut (or refused to cut) a checkpoint.
	EventCheckpointWritten  EventType = "checkpoint_written"
	EventCheckpointRejected EventType = "checkpoint_rejected"
	// EventCompaction: the WAL engine compacted segments.
	EventCompaction EventType = "segment_compaction"
	// EventNodeKill: a cluster node was killed (crash-stopped).
	EventNodeKill EventType = "node_kill"
	// EventPromotion: a standby finished bootstrapping into the ring.
	EventPromotion EventType = "standby_promotion"
	// EventPartitionHeal: a network partition (chaos-injected) healed.
	EventPartitionHeal EventType = "partition_heal"
	// EventCheckerViolation: the history checker flagged an anomaly.
	EventCheckerViolation EventType = "checker_violation"
)

// Event is one journal entry. Seq, Type, Node, TraceID, and Attrs are
// the locked, deterministic fields — under a seeded campaign they are
// byte-identical across runs. Wall is advisory display context only and
// is excluded from deterministic dumps.
type Event struct {
	Seq     uint64    `json:"seq"`
	Type    EventType `json:"type"`
	Node    string    `json:"node,omitempty"`
	TraceID string    `json:"trace_id,omitempty"`
	Attrs   []string  `json:"-"` // alternating key/value pairs, insertion order
	Wall    time.Time `json:"wall,omitempty"`
}

// MarshalJSON renders Attrs as an ordered JSON object under "attrs".
func (ev Event) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	ev.encode(&buf, true)
	return buf.Bytes(), nil
}

// encode writes the event as one JSON object. withWall false is the
// deterministic form: locked fields only, stable order.
func (ev Event) encode(buf *bytes.Buffer, withWall bool) {
	buf.WriteString(`{"seq":`)
	buf.WriteString(strconv.FormatUint(ev.Seq, 10))
	buf.WriteString(`,"type":`)
	writeJSONString(buf, string(ev.Type))
	if ev.Node != "" {
		buf.WriteString(`,"node":`)
		writeJSONString(buf, ev.Node)
	}
	if ev.TraceID != "" {
		buf.WriteString(`,"trace_id":`)
		writeJSONString(buf, ev.TraceID)
	}
	if len(ev.Attrs) > 0 {
		buf.WriteString(`,"attrs":{`)
		for i := 0; i+1 < len(ev.Attrs); i += 2 {
			if i > 0 {
				buf.WriteByte(',')
			}
			writeJSONString(buf, ev.Attrs[i])
			buf.WriteByte(':')
			writeJSONString(buf, ev.Attrs[i+1])
		}
		buf.WriteByte('}')
	}
	if withWall && !ev.Wall.IsZero() {
		buf.WriteString(`,"wall":`)
		b, _ := json.Marshal(ev.Wall)
		buf.Write(b)
	}
	buf.WriteByte('}')
}

func writeJSONString(buf *bytes.Buffer, s string) {
	b, _ := json.Marshal(s)
	buf.Write(b)
}

// Attr returns the value of the named attribute ("" when absent).
func (ev Event) Attr(key string) string {
	for i := 0; i+1 < len(ev.Attrs); i += 2 {
		if ev.Attrs[i] == key {
			return ev.Attrs[i+1]
		}
	}
	return ""
}

// JournalOptions configures a Journal.
type JournalOptions struct {
	// Capacity bounds the ring by entries (default 4096).
	Capacity int
}

// Journal is the bounded flight-recorder ring. Record is the only hot
// call and takes one short mutex hold with no allocation beyond the
// caller's attrs slice; a nil *Journal is fully inert so un-wired
// deployments pay a single nil check per site.
type Journal struct {
	cap int

	mu       sync.Mutex
	ring     []Event
	next     int
	n        int
	seq      uint64
	recorded uint64
	evicted  uint64
}

// NewJournal builds a journal; see JournalOptions for defaults.
func NewJournal(opts JournalOptions) *Journal {
	if opts.Capacity <= 0 {
		opts.Capacity = 4096
	}
	return &Journal{cap: opts.Capacity, ring: make([]Event, opts.Capacity)}
}

// Record appends one event. attrs are alternating key/value pairs kept
// in order (a trailing unpaired key is dropped). traceID may be "" for
// events with no owning trace. Nil-safe.
func (j *Journal) Record(typ EventType, node, traceID string, attrs ...string) {
	if j == nil {
		return
	}
	wall := time.Now()
	j.mu.Lock()
	j.seq++
	j.recorded++
	if j.n == j.cap {
		j.evicted++
	} else {
		j.n++
	}
	j.ring[j.next] = Event{
		Seq:     j.seq,
		Type:    typ,
		Node:    node,
		TraceID: traceID,
		Attrs:   attrs,
		Wall:    wall,
	}
	j.next = (j.next + 1) % j.cap
	j.mu.Unlock()
}

// EventFilter selects a subset of the journal.
type EventFilter struct {
	Type  EventType // "" matches every type
	Node  string    // "" matches every node
	Limit int       // 0 means no limit
}

// Snapshot returns matching events, newest first.
func (j *Journal) Snapshot(f EventFilter) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, j.n)
	for i := 0; i < j.n; i++ {
		idx := (j.next - 1 - i + j.cap*2) % j.cap
		ev := j.ring[idx]
		if f.Type != "" && ev.Type != f.Type {
			continue
		}
		if f.Node != "" && ev.Node != f.Node {
			continue
		}
		out = append(out, ev)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// Stats reports journal volume: events recorded and events evicted by
// the ring bound.
func (j *Journal) Stats() (recorded, evicted uint64) {
	if j == nil {
		return 0, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recorded, j.evicted
}

// DumpDeterministic writes the retained events oldest-first, one JSON
// object per line, locked fields only (no wall-clock). Under a seeded
// chaos campaign the output is byte-identical across runs, which is
// what lets a campaign verdict ship its event timeline as a comparable
// artifact.
func (j *Journal) DumpDeterministic() []byte {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	events := make([]Event, 0, j.n)
	for i := j.n - 1; i >= 0; i-- {
		idx := (j.next - 1 - i + j.cap*2) % j.cap
		events = append(events, j.ring[idx])
	}
	j.mu.Unlock()
	var buf bytes.Buffer
	for _, ev := range events {
		ev.encode(&buf, false)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// DumpToFile writes the deterministic dump to path — the panic/SIGQUIT
// black-box artifact. Nil-safe.
func (j *Journal) DumpToFile(path string) error {
	if j == nil {
		return nil
	}
	return os.WriteFile(path, j.DumpDeterministic(), 0o644)
}

// RegisterTelemetry publishes the journal's volume counters.
func (j *Journal) RegisterTelemetry(reg *Registry) {
	if j == nil || reg == nil {
		return
	}
	reg.Register(func(e *Emitter) {
		recorded, evicted := j.Stats()
		e.Counter("aft_events_recorded_total", "Flight-recorder events recorded into the journal.", recorded)
		e.Counter("aft_events_evicted_total", "Flight-recorder events evicted by the ring bound.", evicted)
	})
}

// eventsPayload is the stable JSON schema served at /events.
type eventsPayload struct {
	Count    int     `json:"count"`
	Recorded uint64  `json:"recorded"`
	Evicted  uint64  `json:"evicted"`
	Events   []Event `json:"events"`
}

// Handler serves the journal as JSON at /events, newest first. Query
// params: ?type=<EventType>, ?node=<id>, ?limit=N.
func (j *Journal) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		f := EventFilter{Type: EventType(q.Get("type")), Node: q.Get("node")}
		if s := q.Get("limit"); s != "" {
			if n, err := strconv.Atoi(s); err == nil && n > 0 {
				f.Limit = n
			}
		}
		events := j.Snapshot(f)
		if events == nil {
			events = []Event{}
		}
		recorded, evicted := j.Stats()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(eventsPayload{
			Count:    len(events),
			Recorded: recorded,
			Evicted:  evicted,
			Events:   events,
		})
	})
}
