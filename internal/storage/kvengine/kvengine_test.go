package kvengine

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestBasicPutGetDelete(t *testing.T) {
	e := newEngine(4)
	if _, ok := e.get("k"); ok {
		t.Fatal("get of missing key succeeded")
	}
	e.put("k", []byte("v"))
	v, ok := e.get("k")
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	e.delete("k")
	if _, ok := e.get("k"); ok {
		t.Fatal("Get after Delete succeeded")
	}
	e.delete("k") // deleting missing key is a no-op
}

func TestValuesCopied(t *testing.T) {
	e := newEngine(1)
	in := []byte("abc")
	e.put("k", in)
	in[0] = 'X'
	v, _ := e.get("k")
	if string(v) != "abc" {
		t.Fatalf("stored value aliased caller slice: %q", v)
	}
	v[0] = 'Y'
	v2, _ := e.get("k")
	if string(v2) != "abc" {
		t.Fatalf("returned value aliased store: %q", v2)
	}
}

func TestPutAllVisibleEverywhere(t *testing.T) {
	e := newEngine(8)
	items := make(map[string][]byte)
	for i := 0; i < 100; i++ {
		items[fmt.Sprintf("key-%03d", i)] = []byte{byte(i)}
	}
	e.putAll(items)
	for k, want := range items {
		v, ok := e.get(k)
		if !ok || v[0] != want[0] {
			t.Fatalf("key %s missing or wrong after PutAll", k)
		}
	}
	if e.Len() != 100 {
		t.Fatalf("Len = %d, want 100", e.Len())
	}
}

func TestListPrefixSorted(t *testing.T) {
	e := newEngine(4)
	for _, k := range []string{"b/2", "a/1", "b/1", "c", "b/10"} {
		e.put(k, nil)
	}
	got := e.list("b/")
	want := []string{"b/1", "b/10", "b/2"}
	if len(got) != len(want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
	if all := e.list(""); len(all) != 5 {
		t.Fatalf("List(\"\") = %v", all)
	}
}

func TestShardForStable(t *testing.T) {
	e := newEngine(7)
	f := func(key string) bool {
		a, b := e.ShardFor(key), e.ShardFor(key)
		return a == b && a >= 0 && a < 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroShardsNormalized(t *testing.T) {
	e := newEngine(0)
	if len(e.shards) != 1 {
		t.Fatalf("shards = %d, want 1", len(e.shards))
	}
	e.put("k", []byte("v"))
	if _, ok := e.get("k"); !ok {
		t.Fatal("single-shard engine broken")
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	e := newEngine(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%50)
				e.put(k, []byte{byte(i)})
				e.get(k)
				if i%10 == 0 {
					e.list(fmt.Sprintf("w%d-", w))
				}
				if i%7 == 0 {
					e.delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPutAllEmptyAndNilValues(t *testing.T) {
	e := newEngine(2)
	e.putAll(nil)
	e.putAll(map[string][]byte{"k": nil})
	v, ok := e.get("k")
	if !ok || len(v) != 0 {
		t.Fatalf("nil value round trip = %v, %v", v, ok)
	}
}
