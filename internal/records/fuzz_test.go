package records

import (
	"bytes"
	"runtime"
	"testing"

	"aft/internal/idgen"
)

// The two parsers of record bytes read back from storage — the commit
// record and the packed object — must survive anything a bad write or a
// hostile store can hand them: they never panic, allocate in proportion to
// the input, and re-encode whatever they accept to the same bytes.

// sampleRecords are records of every shape a node writes: plain, spilled,
// packed and traced.
func sampleRecords() []*CommitRecord {
	id := idgen.ID{Timestamp: 1_700_000_000_000_000_000, UUID: "node-1-0123456789abcdef"}
	plain := NewCommitRecord(id, []string{"k000001", "k000002"}, "aft-1")
	spilled := NewCommitRecord(id, []string{"a", "b/c", "d%e"}, "aft-2")
	spilled.SpillDir = "1699999999999999999_node-1-0123456789abcdef"
	spilled.Spilled = []string{"b/c"}
	packed := NewCommitRecord(id, []string{"p", "q"}, "aft-3")
	packed.Packed = true
	traced := NewCommitRecord(idgen.ID{Timestamp: -1, UUID: ""}, nil, "")
	traced.TraceID = "00f067aa0ba902b7"
	long := NewCommitRecord(id, []string{string(make([]byte, 300))}, "aft-4")
	return []*CommitRecord{plain, spilled, packed, traced, long}
}

// samplePacks are packed write sets: empty, one entry, an empty key and
// value, and several entries.
func samplePacks() []map[string][]byte {
	return []map[string][]byte{
		{},
		{"k": []byte("v")},
		{"": nil, "x": {}},
		{"a": []byte("1"), "b/c": make([]byte, 200), "z": []byte("zz")},
	}
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec *CommitRecord
		var err error
		if got := allocatedDuring(func() { rec, err = UnmarshalCommitRecord(data) }); got > allocLimit(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, allocLimit(len(data)))
		}
		if err != nil {
			return
		}
		if again, _ := rec.Marshal(); !bytes.Equal(again, data) {
			t.Fatalf("accepted record re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}

func FuzzUnpack(f *testing.F) {
	for _, m := range samplePacks() {
		b, _ := Pack(m)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m map[string][]byte
		var err error
		if got := allocatedDuring(func() { m, err = Unpack(data) }); got > allocLimit(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, allocLimit(len(data)))
		}
		if err != nil {
			return
		}
		if again, _ := Pack(m); !bytes.Equal(again, data) {
			t.Fatalf("accepted pack re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}
