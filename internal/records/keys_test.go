package records

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"aft/internal/idgen"
)

// The storage layout as it was first written: plain concatenation around
// two ReplaceAll passes. Every key in storage was built this way, so the
// one-allocation builders must reproduce it byte for byte.
func refEscape(key string) string {
	key = strings.ReplaceAll(key, "%", "%25")
	return strings.ReplaceAll(key, "/", "%2F")
}

func refID(id idgen.ID) string { return strconv.FormatInt(id.Timestamp, 10) + "_" + id.UUID }

func refDataKey(key string, id idgen.ID) string {
	return DataPrefix + refEscape(key) + "/" + refID(id)
}

func refSpillKey(dir, key string) string { return SpillPrefix + dir + "/" + refEscape(key) }

// refEntryKey is the entry key of rec's version of key: the record's key, a
// NUL byte and key for an inline record, else its spill or data key.
func refEntryKey(rec *CommitRecord, key string) string {
	switch {
	case rec.Inline:
		return CommitPrefix + refID(rec.ID()) + "\x00" + key
	case slices.Contains(rec.Spilled, key):
		return refSpillKey(rec.SpillDir, key)
	default:
		return refDataKey(key, rec.ID())
	}
}

// checkKeyBuilders asserts byte identity with the reference layout for one
// input and, where the layout is invertible, the round trip through the
// parsers. (A '/' in the UUID or the spill directory never occurs — both
// come from idgen — and was never parseable.)
func checkKeyBuilders(t *testing.T, key, uuid string, ts int64) {
	t.Helper()
	id := idgen.ID{Timestamp: ts, UUID: uuid}
	if got, want := id.String(), refID(id); got != want {
		t.Fatalf("ID.String() = %q, want %q", got, want)
	}
	if got, want := string(id.Append([]byte("x"))), "x"+refID(id); got != want {
		t.Fatalf("ID.Append = %q, want %q", got, want)
	}
	dk := string(AppendDataKey(nil, key, id))
	if want := refDataKey(key, id); dk != want {
		t.Fatalf("AppendDataKey(%q, %v) = %q, want %q", key, id, dk, want)
	}
	if got := string(AppendDataKey([]byte("x"), key, id)); got != "x"+dk {
		t.Fatalf("AppendDataKey(x, %q, %v) = %q, want %q", key, id, got, "x"+dk)
	}
	rec := NewCommitRecord(id, []string{key}, "n")
	ck := CommitKey(id)
	if want := CommitPrefix + refID(id); ck != want {
		t.Fatalf("CommitKey(%v) = %q, want %q", id, ck, want)
	}
	if rec.EntryKey(0) != dk || rec.Key() != ck {
		t.Fatalf("sealed keys of %q = %q, %q; want %q, %q", key, rec.EntryKey(0), rec.Key(), dk, ck)
	}
	rec.Inline = true
	rec.Seal()
	if want := ck + "\x00" + key; rec.EntryKey(0) != want || rec.Key() != ck {
		t.Fatalf("sealed inline keys of %q = %q, %q; want %q, %q", key, rec.EntryKey(0), rec.Key(), want, ck)
	}
	dir := refID(id)
	sk := SpillKey(dir, key)
	if want := refSpillKey(dir, key); sk != want {
		t.Fatalf("SpillKey(%q, %q) = %q, want %q", dir, key, sk, want)
	}
	rec.Inline, rec.SpillDir, rec.Spilled = false, dir, []string{key}
	rec.Seal()
	if rec.EntryKey(0) != sk || rec.Key() != ck {
		t.Fatalf("sealed spilled keys of %q = %q, %q; want %q, %q", key, rec.EntryKey(0), rec.Key(), sk, ck)
	}
	if strings.Contains(uuid, "/") {
		return
	}
	if k, pid, err := splitDataKey(dk); err != nil || k != key || !pid.Equal(id) {
		t.Fatalf("splitDataKey(%q) = %q, %v, %v; want %q, %v", dk, k, pid, err, key, id)
	}
	if pid, err := ParseCommitKey(ck); err != nil || !pid.Equal(id) {
		t.Fatalf("ParseCommitKey(%q) = %v, %v; want %v", ck, pid, err, id)
	}
	if d, k, err := ParseSpillKey(sk); err != nil || d != dir || k != key {
		t.Fatalf("ParseSpillKey(%q) = %q, %q, %v; want %q, %q", sk, d, k, err, dir, key)
	}
}

var keyBuilderSeeds = []struct {
	key, uuid string
	ts        int64
}{
	{"k", "node-1-00ff", 1700000000000000000},
	{"", "u", 1},
	{"a/b", "n-7-ab", 42},
	{"100%", "n-7-ab", 42},
	{"%2F", "n", 9},
	{"/%/%25//", "n_with_underscores", 10},
	{"héllo/wörld%", "ü-1", 123456789},
	{"\x00\xff\xfe/", "n", 7},
	{"k", "", 0},
	{"k", "n", math.MaxInt64},
	{"k", "n", math.MinInt64},
	{"k", "n", -1},
	{strings.Repeat("long/", 80), strings.Repeat("u", 200), 1000},
}

func TestKeyBuildersMatchOriginalLayout(t *testing.T) {
	for _, c := range keyBuilderSeeds {
		checkKeyBuilders(t, c.key, c.uuid, c.ts)
	}
}

func FuzzKeyBuilders(f *testing.F) {
	for _, c := range keyBuilderSeeds {
		f.Add(c.key, c.uuid, c.ts)
	}
	f.Fuzz(func(t *testing.T, key, uuid string, ts int64) {
		checkKeyBuilders(t, key, uuid, ts)
	})
}
