package records

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"aft/internal/idgen"
)

// dataKey builds a data key in a stack buffer: the string is its one
// allocation.
func dataKey(key string, id idgen.ID) string {
	var b [128]byte
	return string(AppendDataKey(b[:0], key, id))
}

// splitDataKey inverts AppendDataKey's layout: a data key names exactly
// one (key, transaction) pair.
func splitDataKey(storageKey string) (key string, id idgen.ID, err error) {
	rest, ok := strings.CutPrefix(storageKey, DataPrefix)
	i := strings.LastIndexByte(rest, '/')
	if !ok || i < 0 {
		return "", idgen.Null, fmt.Errorf("%q is not a data key", storageKey)
	}
	id, err = idgen.Parse(rest[i+1:])
	return unescapeKey(rest[:i]), id, err
}

func TestDataKeyRoundTrip(t *testing.T) {
	f := func(key string, ts int64, uuid string) bool {
		if ts < 0 {
			ts = -ts
		}
		id := idgen.ID{Timestamp: ts, UUID: uuid}
		if uuidHasSlashProblem(uuid) {
			return true // UUIDs we generate never contain '/'
		}
		gotKey, gotID, err := splitDataKey(dataKey(key, id))
		return err == nil && gotKey == key && gotID.Equal(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func uuidHasSlashProblem(uuid string) bool {
	for _, r := range uuid {
		if r == '/' {
			return true
		}
	}
	return false
}

func TestDataKeyTrickyUserKeys(t *testing.T) {
	id := idgen.ID{Timestamp: 7, UUID: "n-1-ab"}
	for _, key := range []string{"plain", "with/slash", "with%percent", "%2F", "a/b/c%25", ""} {
		k, got, err := splitDataKey(dataKey(key, id))
		if err != nil || k != key || !got.Equal(id) {
			t.Errorf("round trip of %q failed: %q, %v, %v", key, k, got, err)
		}
	}
}

func TestCommitKeyRoundTrip(t *testing.T) {
	id := idgen.ID{Timestamp: 42, UUID: "node-1-ff"}
	got, err := ParseCommitKey(CommitKey(id))
	if err != nil || !got.Equal(id) {
		t.Fatalf("round trip = %v, %v", got, err)
	}
	if _, err := ParseCommitKey("aft/d/x"); err == nil {
		t.Fatal("ParseCommitKey accepted a data key")
	}
}

func TestCommitRecordMarshalRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		b, err := rec.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != recordVersion {
			t.Fatalf("version byte %d, want %d", b[0], recordVersion)
		}
		got, err := UnmarshalCommitRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip:\n got  %+v\n want %+v", got, rec)
		}
		if appended, _ := rec.AppendBinary([]byte("xy")); string(appended) != "xy"+string(b) {
			t.Fatalf("AppendBinary does not append Marshal's bytes")
		}
	}
}

func TestUnmarshalCommitRecordError(t *testing.T) {
	good, _ := sampleRecords()[2].Marshal()
	bad := map[string][]byte{
		"JSON":            []byte(`{"ts":1,"uuid":"u","writeset":["a"]}`),
		"empty":           nil,
		"unknown version": append([]byte{recordVersion + 1}, good[1:]...),
		"unknown flag":    append([]byte{recordVersion, 0x80}, good[2:]...),
		"trailing byte":   append(append([]byte(nil), good...), 'x'),
		// 2-key record, first key's length 200: past the end.
		"length past end": append(append([]byte(nil), good[:recordHeader]...), 1, 0, 0, 0, 2, 0, 100, 1, 'u'),
		"non-minimal":     append(append([]byte(nil), good[:recordHeader]...), 0x81, 0x00, 0, 0, 0, 0, 0, 'u'),
		// The write-set count takes every byte left, and the spilled
		// count claims 2^62 keys: rejected at once, not after 2^62 steps.
		"huge count": append(append([]byte(nil), good[:recordHeader]...),
			0, 0, 0, 0, 10, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40),
	}
	for i := 0; i < len(good); i++ {
		bad[fmt.Sprintf("truncated at %d", i)] = good[:i]
	}
	// Inline records that carry a key's value twice or spill.
	inline := func(keys []string, spilled ...string) []byte {
		r := NewCommitRecord(idgen.ID{Timestamp: 1, UUID: "u"}, keys, "")
		r.Spilled = spilled
		return r.AppendInline(nil, make([][]byte, len(keys)))
	}
	bad["inline out of order"] = inline([]string{"b", "a"})
	bad["inline repeated"] = inline([]string{"a", "a"})
	bad["inline spilled"] = inline([]string{"a"}, "a")
	for name, b := range bad {
		if rec, err := UnmarshalCommitRecord(b); err == nil {
			t.Errorf("%s: accepted as %+v", name, rec)
		}
	}
}

// TestPackRoundTrip: a write set packed into its commit record reads back
// key by key, and its record decodes to keys only.
func TestPackRoundTrip(t *testing.T) {
	for _, c := range sampleInline() {
		got, err := UnmarshalCommitRecord(c.enc)
		if err != nil {
			t.Fatal(err)
		}
		want := *c.rec
		want.Inline = true
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("inline round trip:\n got  %+v\n want %+v", got, &want)
		}
		if n := c.rec.InlineSize(c.values); n != len(c.enc) {
			t.Fatalf("InlineSize = %d, encoding holds %d", n, len(c.enc))
		}
		for i, k := range c.rec.WriteSet {
			v, err := InlineValue(c.enc, k)
			if err != nil || string(v) != string(c.values[i]) {
				t.Fatalf("InlineValue(%q) = %q, %v; want %q", k, v, err, c.values[i])
			}
		}
		if _, err := InlineValue(c.enc, "absent"); err == nil {
			t.Fatal("InlineValue found a key outside the write set")
		}
	}
}

func TestCowritten(t *testing.T) {
	rec := NewCommitRecord(idgen.ID{Timestamp: 1, UUID: "u"}, []string{"k", "l"}, "")
	if !rec.Cowritten("k") || !rec.Cowritten("l") {
		t.Fatal("write-set keys not cowritten")
	}
	if rec.Cowritten("m") {
		t.Fatal("foreign key reported cowritten")
	}
}

func TestNewCommitRecordCopiesWriteSet(t *testing.T) {
	ws := []string{"a"}
	rec := NewCommitRecord(idgen.ID{Timestamp: 1, UUID: "u"}, ws, "")
	ws[0] = "mutated"
	if rec.WriteSet[0] != "a" {
		t.Fatal("write set aliased caller slice")
	}
}

func TestKeyVersionString(t *testing.T) {
	kv := KeyVersion{Key: "k", ID: idgen.ID{Timestamp: 3, UUID: "u"}}
	if kv.String() != "k@3_u" {
		t.Fatalf("String = %q", kv.String())
	}
}

func TestCommitKeysSortByTimestampWithinFixedWidth(t *testing.T) {
	// Bootstrap reads the Transaction Commit Set via a prefix List; the
	// layout must keep commit keys of same-width timestamps in ID order.
	a := CommitKey(idgen.ID{Timestamp: 100, UUID: "a"})
	b := CommitKey(idgen.ID{Timestamp: 200, UUID: "a"})
	if !(a < b) {
		t.Fatalf("commit keys out of order: %q vs %q", a, b)
	}
}
