package core

import (
	"math/rand"
	"slices"
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
	got := vi.atLeast("k", idgen.Null)
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
	if got := vi.atLeast("k", idgen.Null); len(got) != 1 {
		t.Fatalf("duplicate inserted: %v", got)
	}
}

func TestIndexRemove(t *testing.T) {
	vi := make(versionIndex)
	vi.insert("k", id(1, "a"))
	vi.insert("k", id(2, "b"))
	vi.remove("k", id(1, "a"))
	if got := vi.atLeast("k", idgen.Null); len(got) != 1 || !got[0].Equal(id(2, "b")) {
		t.Fatalf("after remove: %v", got)
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

// TestIndexRandomizedAgainstReference drives version lists through random
// inserts and removals — duplicates, absent IDs, removals at the front, in
// the middle and at the back, and lists that empty and refill — and checks
// latest and atLeast against a sorted-set model after every step, so a
// list's free head slots and its slides back over them never show, and
// keys never see each other's versions.
func TestIndexRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vi := make(versionIndex)
	keys := []string{"a", "b", "c"}
	models := map[string][]idgen.ID{} // each sorted, no duplicates
	find := func(model []idgen.ID, v idgen.ID) (int, bool) {
		i := sort.Search(len(model), func(i int) bool { return !model[i].Less(v) })
		return i, i < len(model) && model[i].Equal(v)
	}
	check := func(step int, op string) {
		t.Helper()
		for _, k := range keys {
			model := models[k]
			latest, ok := vi.latest(k)
			if ok != (len(model) > 0) || (ok && !latest.Equal(model[len(model)-1])) {
				t.Fatalf("step %d (%s): key %s latest = %v, %v; model %v", step, op, k, latest, ok, model)
			}
			if _, present := vi[k]; present != (len(model) > 0) {
				t.Fatalf("step %d (%s): key %s present = %v with %d versions", step, op, k, present, len(model))
			}
			lowers := append([]idgen.ID{idgen.Null, id(1<<40, "")}, model...)
			for _, v := range model {
				lowers = append(lowers, id(v.Timestamp, v.UUID+"~"))
			}
			for _, lower := range lowers {
				i, _ := find(model, lower)
				if got := vi.atLeast(k, lower); !slices.EqualFunc(got, model[i:], idgen.ID.Equal) {
					t.Fatalf("step %d (%s): key %s atLeast(%v) = %v, want %v", step, op, k, lower, got, model[i:])
				}
			}
		}
	}
	next := int64(0)
	for step := 0; step < 5000; step++ {
		k := keys[rng.Intn(len(keys))]
		model := models[k]
		var op string
		switch r := rng.Intn(10); {
		case r < 4: // the commit path: mostly newer versions, some older, some repeats
			var v idgen.ID
			switch rng.Intn(4) {
			case 0:
				if len(model) == 0 {
					continue
				}
				v, op = model[rng.Intn(len(model))], "insert duplicate"
			case 1:
				v, op = id(rng.Int63n(next+1), "a"), "insert anywhere"
			default:
				next++
				v, op = id(next, "a"), "insert newest"
			}
			vi.insert(k, v)
			if i, ok := find(model, v); !ok {
				model = slices.Insert(model, i, v)
			}
		case r < 9: // the sweep: mostly the oldest, sometimes the middle or newest
			if len(model) == 0 {
				vi.remove(k, id(1, "a"))
				op = "remove from empty"
				break
			}
			i := 0
			switch rng.Intn(4) {
			case 0:
				i, op = len(model)/2, "remove middle"
			case 1:
				i, op = len(model)-1, "remove newest"
			default:
				op = "remove oldest"
			}
			vi.remove(k, model[i])
			model = slices.Delete(model, i, i+1)
		default:
			if rng.Intn(20) == 0 { // empty the list; the inserts refill it
				for _, v := range model {
					vi.remove(k, v)
				}
				model, op = nil, "empty"
			} else {
				vi.remove(k, id(next+1, "absent"))
				op = "remove absent"
			}
		}
		models[k] = model
		check(step, op)
	}
}

func TestDataCacheLRU(t *testing.T) {
	c := newDataCache(2)
	c.adopt("a", []byte("1"))
	c.adopt("b", []byte("2"))
	if _, ok := c.appendTo("a", nil); !ok { // touch a: now b is LRU
		t.Fatal("a missing")
	}
	c.adopt("c", []byte("3")) // evicts b
	if _, ok := c.appendTo("b", nil); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.appendTo("a", nil); !ok || string(v) != "1" {
		t.Fatal("a lost")
	}
	if v, ok := c.appendTo("c", nil); !ok || string(v) != "3" {
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
	if v, _ := c.appendTo("a", nil); string(v) != "2" {
		t.Fatalf("value = %q", v)
	}
}

func TestDataCacheEvictAndNilSafety(t *testing.T) {
	c := newDataCache(4)
	c.adopt("a", []byte("1"))
	c.evict("a")
	if _, ok := c.appendTo("a", nil); ok {
		t.Fatal("a not evicted")
	}
	c.evict("missing")

	var nilCache *dataCache
	nilCache.adopt("x", nil)
	nilCache.evict("x")
	if _, ok := nilCache.appendTo("x", nil); ok {
		t.Fatal("nil cache returned a value")
	}
	if nilCache.len() != 0 {
		t.Fatal("nil cache has length")
	}
}

func TestDataCacheCopies(t *testing.T) {
	c := newDataCache(4)
	c.adopt("k", []byte("abc"))
	v, _ := c.appendTo("k", nil)
	if string(v) != "abc" {
		t.Fatalf("cached value = %q", v)
	}
	v[0] = 'Y'
	v2, _ := c.appendTo("k", nil)
	if string(v2) != "abc" {
		t.Fatalf("cache aliased output: %q", v2)
	}
	// A reader's buffer is appended to, not replaced.
	if v3, _ := c.appendTo("k", []byte("x:")); string(v3) != "x:abc" {
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
