package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

// spanKind names a span. client.* spans are recorded at the handle the
// clients call; storage.* spans at the store handed to the deployment.
type spanKind uint8

const (
	spanTxn spanKind = iota
	spanStart
	spanGet
	spanMultiGet
	spanPut
	spanCommit
	spanStoreGet
	spanStorePut
	spanStoreBatchPut
	spanStoreBatchGet
	spanStoreList
	spanStoreDelete
	spanStoreBatchDelete
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.txn", "client.start", "client.get", "client.multiget",
	"client.put", "client.commit",
	"storage.get", "storage.put", "storage.batchput", "storage.batchget",
	"storage.list", "storage.delete", "storage.batchdelete",
}

// span is one timed interval. Client spans of one transaction share
// (client, txn); the client.txn span is their parent. Storage spans carry
// client = -1: no causal parent is visible from outside the program, and
// one BatchPut serves many transactions.
type span struct {
	kind   spanKind
	client int16
	txn    int32
	start  int64 // ns since the trace epoch
	dur    int64 // ns
	items  int32
	bytes  int64
}

// spanLog is a fixed-capacity span buffer many goroutines append to. A
// slot is claimed with one atomic add; spans past the capacity are counted
// and dropped, never reallocated, so tracing cost stays flat.
type spanLog struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, capacity)}
}

func (l *spanLog) add(s span) {
	i := l.next.Add(1) - 1
	if i >= int64(len(l.spans)) {
		l.dropped.Add(1)
		return
	}
	l.spans[i] = s
}

// since converts a wall time to the log's epoch.
func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.epoch)) }

// recorded returns the spans written so far. Call only after every writer
// has stopped.
func (l *spanLog) recorded() []span {
	n := l.next.Load()
	if n > int64(len(l.spans)) {
		n = int64(len(l.spans))
	}
	return l.spans[:n]
}

// writeJSONL writes one JSON object per span to dir/trace-<workload>.jsonl:
// name, id, parent (client spans only), start_us, dur_us, and for storage
// spans items and bytes. Returns the file path.
func writeJSONL(dir, workload string, groups ...[]span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, g := range groups {
		for _, s := range g {
			line = appendSpanJSON(line[:0], s)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

func appendSpanJSON(b []byte, s span) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, spanNames[s.kind]...)
	b = append(b, '"')
	if s.client >= 0 {
		field := `,"parent":"c`
		if s.kind == spanTxn {
			field = `,"id":"c`
		}
		b = append(b, field...)
		b = strconv.AppendInt(b, int64(s.client), 10)
		b = append(b, "-t"...)
		b = strconv.AppendInt(b, int64(s.txn), 10)
		b = append(b, '"')
	}
	b = append(b, `,"start_us":`...)
	b = strconv.AppendFloat(b, float64(s.start)/1e3, 'f', 3, 64)
	b = append(b, `,"dur_us":`...)
	b = strconv.AppendFloat(b, float64(s.dur)/1e3, 'f', 3, 64)
	if s.client < 0 {
		b = append(b, `,"items":`...)
		b = strconv.AppendInt(b, int64(s.items), 10)
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, s.bytes, 10)
	}
	return append(b, "}\n"...)
}
