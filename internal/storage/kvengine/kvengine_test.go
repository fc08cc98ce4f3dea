package kvengine

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestBasicPutGetDelete(t *testing.T) {
	e := New(4)
	if _, ok := e.Get("k"); ok {
		t.Fatal("Get of missing key succeeded")
	}
	e.Put("k", []byte("v"))
	v, ok := e.Get("k")
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	e.Delete("k")
	if _, ok := e.Get("k"); ok {
		t.Fatal("Get after Delete succeeded")
	}
	e.Delete("k") // deleting missing key is a no-op
}

func TestValuesCopied(t *testing.T) {
	e := New(1)
	in := []byte("abc")
	e.Put("k", in)
	in[0] = 'X'
	v, _ := e.Get("k")
	if string(v) != "abc" {
		t.Fatalf("stored value aliased caller slice: %q", v)
	}
	v[0] = 'Y'
	v2, _ := e.Get("k")
	if string(v2) != "abc" {
		t.Fatalf("returned value aliased store: %q", v2)
	}
}

func TestPutAllVisibleEverywhere(t *testing.T) {
	e := New(8)
	items := make(map[string][]byte)
	for i := 0; i < 100; i++ {
		items[fmt.Sprintf("key-%03d", i)] = []byte{byte(i)}
	}
	e.PutAll(items)
	for k, want := range items {
		v, ok := e.Get(k)
		if !ok || v[0] != want[0] {
			t.Fatalf("key %s missing or wrong after PutAll", k)
		}
	}
	if e.Len() != 100 {
		t.Fatalf("Len = %d, want 100", e.Len())
	}
}

func TestListPrefixSorted(t *testing.T) {
	e := New(4)
	for _, k := range []string{"b/2", "a/1", "b/1", "c", "b/10"} {
		e.Put(k, nil)
	}
	got := e.List("b/")
	want := []string{"b/1", "b/10", "b/2"}
	if len(got) != len(want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
	if all := e.List(""); len(all) != 5 {
		t.Fatalf("List(\"\") = %v", all)
	}
}

func TestShardForStable(t *testing.T) {
	e := New(7)
	f := func(key string) bool {
		a, b := e.ShardFor(key), e.ShardFor(key)
		return a == b && a >= 0 && a < 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroShardsNormalized(t *testing.T) {
	e := New(0)
	if e.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1", e.NumShards())
	}
	e.Put("k", []byte("v"))
	if _, ok := e.Get("k"); !ok {
		t.Fatal("single-shard engine broken")
	}
}

func TestLockShardSerializes(t *testing.T) {
	e := New(2)
	key := "x"
	unlock := e.LockShard(e.ShardFor(key))
	e.PutLocked(key, []byte("1"))
	unlock()
	if v, ok := e.Get(key); !ok || string(v) != "1" {
		t.Fatalf("after PutLocked, Get = %q, %v", v, ok)
	}
	unlock = e.LockShard(e.ShardFor(key))
	done := make(chan struct{})
	go func() {
		e.Put(key, []byte("2")) // blocks until unlock
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Put proceeded while shard locked")
	default:
	}
	unlock()
	<-done
	if v, _ := e.Get(key); string(v) != "2" {
		t.Fatalf("final value = %q", v)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	e := New(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("w%d-k%d", w, i%50)
				e.Put(k, []byte{byte(i)})
				e.Get(k)
				if i%10 == 0 {
					e.List(fmt.Sprintf("w%d-", w))
				}
				if i%7 == 0 {
					e.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestPutAllEmptyAndNilValues(t *testing.T) {
	e := New(2)
	e.PutAll(nil)
	e.PutAll(map[string][]byte{"k": nil})
	v, ok := e.Get("k")
	if !ok || len(v) != 0 {
		t.Fatalf("nil value round trip = %v, %v", v, ok)
	}
}
