//go:build !race

package records

import (
	"testing"

	"aft/internal/idgen"
)

// The key builders run once per written version, per commit and per read:
// each must cost exactly the string it returns, escaping included.
func TestKeyBuildersAllocateOnce(t *testing.T) {
	id := idgen.ID{Timestamp: 1700000000000000000, UUID: "node-12-0123456789abcdef"}
	var sink string
	for name, f := range map[string]func(){
		"AppendDataKey":         func() { sink = dataKey("user-key", id) },
		"AppendDataKey/escaped": func() { sink = dataKey("a/b%c", id) },
		"CommitKey":             func() { sink = CommitKey(id) },
		"SpillKey":              func() { sink = SpillKey("17_node-1-ab", "user-key") },
		"SpillKey/escaped":      func() { sink = SpillKey("17_node-1-ab", "a/b%c") },
	} {
		if got := testing.AllocsPerRun(100, f); got != 1 {
			t.Errorf("%s: %v allocs/op, want 1", name, got)
		}
	}
	_ = sink
}

// TestRecordCodecAllocBudget pins the commit record's codec: every commit
// encodes one and every multicast delivery, storage scan and bootstrap
// decodes them, and every read of an inline version extracts its value.
// Encoding into room it is given allocates nothing, Marshal only its
// result, decoding a 2-key record — inline or not — the record with its key
// slices inside it and one buffer for its text and its versions' storage
// keys, sealing a record the buffer for its keys, and extracting a value
// nothing.
func TestRecordCodecAllocBudget(t *testing.T) {
	rec := NewCommitRecord(idgen.ID{Timestamp: 1700000000000000000, UUID: "node-12-0123456789abcdef"},
		[]string{"k000001", "k000002"}, "aft-1")
	enc, _ := rec.Marshal()
	values := [][]byte{make([]byte, 1024), make([]byte, 1024)}
	inline := rec.AppendInline(nil, values)
	buf := make([]byte, 0, 4096)
	for _, c := range []struct {
		name   string
		budget float64
		f      func()
	}{
		{"AppendBinary", 0, func() { buf, _ = rec.AppendBinary(buf[:0]) }},
		{"Marshal", 1, func() { enc, _ = rec.Marshal() }},
		{"UnmarshalCommitRecord", 2, func() {
			if got, err := UnmarshalCommitRecord(enc); err != nil || len(got.WriteSet) != 2 {
				t.Fatalf("UnmarshalCommitRecord = %+v, %v", got, err)
			}
		}},
		{"Seal", 1, func() { rec.Seal() }},
		{"AppendInline", 0, func() { buf = rec.AppendInline(buf[:0], values) }},
		{"UnmarshalCommitRecord/inline", 2, func() {
			if got, err := UnmarshalCommitRecord(inline); err != nil || !got.Inline {
				t.Fatalf("UnmarshalCommitRecord = %+v, %v", got, err)
			}
		}},
		{"InlineValue", 0, func() {
			if v, err := InlineValue(inline, "k000002"); err != nil || len(v) != 1024 {
				t.Fatalf("InlineValue = %d bytes, %v", len(v), err)
			}
		}},
	} {
		got := testing.AllocsPerRun(100, c.f)
		t.Logf("%s: %v allocs", c.name, got)
		if got > c.budget {
			t.Errorf("%s: %v allocs/op, budget %v", c.name, got, c.budget)
		}
	}
}
