package records

import (
	"bytes"
	"runtime"
	"testing"

	"aft/internal/idgen"
)

// The parsers of record bytes read back from storage — the commit record
// decoder and the inline value extractor — must survive anything a bad
// write or a hostile store can hand them: they never panic, allocate in
// proportion to the input (the extractor not at all), and whatever the
// decoder accepts re-encodes to the same bytes.

// sampleRecords are records of every shape a node writes without values:
// plain, spilled, traced and long.
func sampleRecords() []*CommitRecord {
	id := idgen.ID{Timestamp: 1_700_000_000_000_000_000, UUID: "node-1-0123456789abcdef"}
	plain := NewCommitRecord(id, []string{"k000001", "k000002"}, "aft-1")
	spilled := NewCommitRecord(id, []string{"a", "b/c", "d%e"}, "aft-2")
	spilled.SpillDir = "1699999999999999999_node-1-0123456789abcdef"
	spilled.Spilled = []string{"b/c"}
	sorted := NewCommitRecord(id, []string{"p", "q"}, "aft-3")
	traced := NewCommitRecord(idgen.ID{Timestamp: -1, UUID: ""}, nil, "")
	traced.TraceID = "00f067aa0ba902b7"
	long := NewCommitRecord(id, []string{string(make([]byte, 300))}, "aft-4")
	return []*CommitRecord{plain, spilled, sorted, traced, long}
}

// inlineCase is an inline record: the record, its values and its
// encoding.
type inlineCase struct {
	rec    *CommitRecord
	values [][]byte
	enc    []byte
}

// sampleInline are inline records: the paper's 2-key write set, an empty
// write set, empty and escaped keys with an empty value, and a traced one.
func sampleInline() []inlineCase {
	id := idgen.ID{Timestamp: 1_700_000_000_000_000_000, UUID: "node-1-0123456789abcdef"}
	traced := NewCommitRecord(id, []string{"a", "b/c", "d%e"}, "aft-2")
	traced.TraceID = "00f067aa0ba902b7"
	cases := []inlineCase{
		{NewCommitRecord(id, []string{"k000001", "k000002"}, "aft-1"), [][]byte{[]byte("v1"), make([]byte, 300)}, nil},
		{NewCommitRecord(id, nil, "aft-1"), nil, nil},
		{NewCommitRecord(id, []string{"", "x"}, ""), [][]byte{nil, {}}, nil},
		{traced, [][]byte{[]byte("1"), []byte("22"), []byte("333")}, nil},
	}
	for i := range cases {
		cases[i].enc = cases[i].rec.AppendInline(nil, cases[i].values)
	}
	return cases
}

// allocatedDuring returns the heap bytes allocated while f runs.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocLimit bounds what decoding n input bytes may allocate: a string
// header or map entry per input byte at most, plus slack for what the
// fuzzing runtime allocates meanwhile (the count is process-wide).
func allocLimit(n int) uint64 { return uint64(64*n + 1<<20) }

func FuzzUnmarshalCommitRecord(f *testing.F) {
	for _, rec := range sampleRecords() {
		b, _ := rec.Marshal()
		f.Add(b)
	}
	for _, c := range sampleInline() {
		f.Add(c.enc)
	}
	// An inline record cut inside its last value, and one whose last
	// value's length runs past the end of the input.
	valid := sampleInline()[0].enc
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid[:len(valid)-300]...), valid[len(valid)-299:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec *CommitRecord
		var err error
		if got := allocatedDuring(func() { rec, err = UnmarshalCommitRecord(data) }); got > allocLimit(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, allocLimit(len(data)))
		}
		if err != nil {
			return
		}
		again, _ := rec.Marshal()
		if rec.Inline {
			values := make([][]byte, len(rec.WriteSet))
			for i, k := range rec.WriteSet {
				if values[i], err = InlineValue(data, k); err != nil {
					t.Fatalf("accepted inline record has no value for %q: %v", k, err)
				}
			}
			again = rec.AppendInline(nil, values)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted record re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}

func FuzzInlineValue(f *testing.F) {
	for _, c := range sampleInline() {
		for _, k := range c.rec.WriteSet {
			f.Add(c.enc, k)
		}
		f.Add(c.enc, "absent")
	}
	plain, _ := sampleRecords()[0].Marshal()
	f.Add(plain, "k000001")
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		var v []byte
		var err error
		if got := allocatedDuring(func() { v, err = InlineValue(data, key) }); err == nil && got > allocLimit(0) {
			t.Fatalf("extracting from %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if cap(v) != len(v) {
			t.Fatalf("value of %d bytes leaves capacity %d", len(v), cap(v))
		}
		rec, err := UnmarshalCommitRecord(data)
		if err != nil {
			// An inline write set out of order: the extractor reads it
			// anyway, and the decoder refuses it.
			return
		}
		if !rec.Inline || !rec.Cowritten(key) {
			t.Fatalf("extracted %q from a record that does not carry it: %+v", key, rec)
		}
	})
}
