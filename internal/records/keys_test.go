package records

import (
	"math"
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
	if got := string(rec.AppendStorageKeyFor([]byte("x"), key)); got != "x"+dk {
		t.Fatalf("AppendStorageKeyFor(%q) = %q, want %q", key, got, "x"+dk)
	}
	ck := CommitKey(id)
	if want := CommitPrefix + refID(id); ck != want {
		t.Fatalf("CommitKey(%v) = %q, want %q", id, ck, want)
	}
	if got := string(AppendCommitKey([]byte("x"), id)); got != "x"+ck {
		t.Fatalf("AppendCommitKey(%v) = %q, want %q", id, got, "x"+ck)
	}
	rec.Inline = true
	if got := string(rec.AppendStorageKeyFor([]byte("x"), key)); got != "x"+ck {
		t.Fatalf("inline AppendStorageKeyFor(%q) = %q, want %q", key, got, "x"+ck)
	}
	dir := refID(id)
	sk := SpillKey(dir, key)
	if want := refSpillKey(dir, key); sk != want {
		t.Fatalf("SpillKey(%q, %q) = %q, want %q", dir, key, sk, want)
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
