package core

import (
	"math/rand"
	"sort"
	"testing"

	"aft/internal/idgen"
)

func id(ts int64, uuid string) idgen.ID { return idgen.ID{Timestamp: ts, UUID: uuid} }

func TestIndexInsertOrdered(t *testing.T) {
	vi := make(versionIndex)
	vi.insert("k", id(3, "c"))
	vi.insert("k", id(1, "a"))
	vi.insert("k", id(2, "b"))
	vi.insert("k", id(2, "a")) // tie broken by uuid
	got := vi["k"]
	want := []idgen.ID{id(1, "a"), id(2, "a"), id(2, "b"), id(3, "c")}
	if len(got) != len(want) {
		t.Fatalf("index = %v", got)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("index[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestIndexInsertDuplicateIgnored(t *testing.T) {
	vi := make(versionIndex)
	vi.insert("k", id(1, "a"))
	vi.insert("k", id(1, "a"))
	if len(vi["k"]) != 1 {
		t.Fatalf("duplicate inserted: %v", vi["k"])
	}
}

func TestIndexRemove(t *testing.T) {
	vi := make(versionIndex)
	vi.insert("k", id(1, "a"))
	vi.insert("k", id(2, "b"))
	vi.remove("k", id(1, "a"))
	if len(vi["k"]) != 1 || !vi["k"][0].Equal(id(2, "b")) {
		t.Fatalf("after remove: %v", vi["k"])
	}
	vi.remove("k", id(9, "z")) // absent: no-op
	vi.remove("k", id(2, "b"))
	if _, ok := vi["k"]; ok {
		t.Fatal("empty key not deleted from index")
	}
	vi.remove("never", id(1, "a")) // missing key: no-op
}

func TestIndexLatest(t *testing.T) {
	vi := make(versionIndex)
	if _, ok := vi.latest("k"); ok {
		t.Fatal("latest of empty key")
	}
	vi.insert("k", id(5, "e"))
	vi.insert("k", id(2, "b"))
	latest, ok := vi.latest("k")
	if !ok || !latest.Equal(id(5, "e")) {
		t.Fatalf("latest = %v, %v", latest, ok)
	}
}

func TestIndexAtLeast(t *testing.T) {
	vi := make(versionIndex)
	for i := 1; i <= 5; i++ {
		vi.insert("k", id(int64(i), "u"))
	}
	got := vi.atLeast("k", id(3, "u"))
	if len(got) != 3 || !got[0].Equal(id(3, "u")) {
		t.Fatalf("atLeast = %v", got)
	}
	if got := vi.atLeast("k", idgen.Null); len(got) != 5 {
		t.Fatalf("atLeast(Null) = %v", got)
	}
	if got := vi.atLeast("k", id(9, "u")); len(got) != 0 {
		t.Fatalf("atLeast(9) = %v", got)
	}
	if got := vi.atLeast("missing", idgen.Null); len(got) != 0 {
		t.Fatalf("atLeast on missing key = %v", got)
	}
}

func TestIndexRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vi := make(versionIndex)
	ref := map[string]map[idgen.ID]bool{}
	keys := []string{"a", "b", "c"}
	for i := 0; i < 2000; i++ {
		k := keys[rng.Intn(len(keys))]
		v := id(int64(rng.Intn(20)), string(rune('a'+rng.Intn(4))))
		if rng.Intn(3) == 0 {
			vi.remove(k, v)
			delete(ref[k], v)
		} else {
			vi.insert(k, v)
			if ref[k] == nil {
				ref[k] = map[idgen.ID]bool{}
			}
			ref[k][v] = true
		}
	}
	for _, k := range keys {
		var want []idgen.ID
		for v := range ref[k] {
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		got := vi[k]
		if len(got) != len(want) {
			t.Fatalf("key %s: got %d versions, want %d", k, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("key %s index[%d] = %v, want %v", k, i, got[i], want[i])
			}
		}
	}
}

func TestDataCacheLRU(t *testing.T) {
	c := newDataCache(2)
	c.adopt("a", []byte("1"))
	c.adopt("b", []byte("2"))
	if _, ok := c.appendTo([]byte("a"), nil); !ok { // touch a: now b is LRU
		t.Fatal("a missing")
	}
	c.adopt("c", []byte("3")) // evicts b
	if _, ok := c.appendTo([]byte("b"), nil); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.appendTo([]byte("a"), nil); !ok || string(v) != "1" {
		t.Fatal("a lost")
	}
	if v, ok := c.appendTo([]byte("c"), nil); !ok || string(v) != "3" {
		t.Fatal("c missing")
	}
}

func TestDataCacheUpdateInPlace(t *testing.T) {
	c := newDataCache(2)
	c.adopt("a", []byte("1"))
	c.adopt("a", []byte("2"))
	if c.len() != 1 {
		t.Fatalf("len = %d", c.len())
	}
	if v, _ := c.appendTo([]byte("a"), nil); string(v) != "2" {
		t.Fatalf("value = %q", v)
	}
}

func TestDataCacheEvictAndNilSafety(t *testing.T) {
	c := newDataCache(4)
	c.adopt("a", []byte("1"))
	c.evict([]byte("a"))
	if _, ok := c.appendTo([]byte("a"), nil); ok {
		t.Fatal("a not evicted")
	}
	c.evict([]byte("missing"))

	var nilCache *dataCache
	nilCache.adopt("x", nil)
	nilCache.evict([]byte("x"))
	if _, ok := nilCache.appendTo([]byte("x"), nil); ok {
		t.Fatal("nil cache returned a value")
	}
	if nilCache.len() != 0 {
		t.Fatal("nil cache has length")
	}
}

func TestDataCacheCopies(t *testing.T) {
	c := newDataCache(4)
	c.adopt("k", []byte("abc"))
	v, _ := c.appendTo([]byte("k"), nil)
	if string(v) != "abc" {
		t.Fatalf("cached value = %q", v)
	}
	v[0] = 'Y'
	v2, _ := c.appendTo([]byte("k"), nil)
	if string(v2) != "abc" {
		t.Fatalf("cache aliased output: %q", v2)
	}
	// A reader's buffer is appended to, not replaced.
	if v3, _ := c.appendTo([]byte("k"), []byte("x:")); string(v3) != "x:abc" {
		t.Fatalf("appendTo into a buffer = %q", v3)
	}
}

func TestDataCacheMinCapacity(t *testing.T) {
	c := newDataCache(0) // normalized to 1
	c.adopt("a", []byte("1"))
	c.adopt("b", []byte("2"))
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}
