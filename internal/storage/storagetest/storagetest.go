// Package storagetest provides a conformance suite for storage.Store
// implementations: any backend AFT runs over must pass it. The suite
// checks the contract the shim depends on — durability-once-acknowledged
// (read-your-acknowledged-writes), copy semantics, ordered prefix listing,
// concurrent safety — plus the capability behaviours AFT's commit path
// branches on.
package storagetest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"aft/internal/storage"
)

// Factory builds a fresh, empty store for each subtest.
type Factory func() storage.Store

// Run executes the conformance suite against stores built by factory.
func Run(t *testing.T, factory Factory) {
	t.Helper()
	t.Run("GetMissing", func(t *testing.T) {
		s := factory()
		if _, err := s.Get(context.Background(), "missing"); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("Get missing = %v, want ErrNotFound", err)
		}
	})
	t.Run("PutThenGet", func(t *testing.T) {
		s := factory()
		ctx := context.Background()
		if err := s.Put(ctx, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		v, err := s.Get(ctx, "k")
		if err != nil || string(v) != "v" {
			t.Fatalf("Get = %q, %v", v, err)
		}
	})
	t.Run("OverwriteLastWins", func(t *testing.T) {
		s := factory()
		ctx := context.Background()
		s.Put(ctx, "k", []byte("v1"))
		s.Put(ctx, "k", []byte("v2"))
		v, _ := s.Get(ctx, "k")
		if string(v) != "v2" {
			t.Fatalf("Get = %q", v)
		}
	})
	t.Run("EmptyAndNilValues", func(t *testing.T) {
		s := factory()
		ctx := context.Background()
		if err := s.Put(ctx, "nil", nil); err != nil {
			t.Fatal(err)
		}
		v, err := s.Get(ctx, "nil")
		if err != nil || len(v) != 0 {
			t.Fatalf("Get = %v, %v", v, err)
		}
	})
	t.Run("EmptyValueRoundTrip", func(t *testing.T) {
		// An empty value is a real value, not an absence: it must survive
		// Put and BatchPut, read back (empty, not an error) through Get
		// AND BatchGet — where the key must be PRESENT in the result map —
		// and keep its key visible to List. Engines that conflate
		// zero-length values with missing keys corrupt AFT's metadata-only
		// writes.
		s := factory()
		ctx := context.Background()
		if err := s.Put(ctx, "empty-put", []byte{}); err != nil {
			t.Fatal(err)
		}
		if err := s.BatchPut(ctx, map[string][]byte{"empty-batch": {}}); err != nil &&
			!errors.Is(err, storage.ErrBatchUnsupported) {
			t.Fatal(err)
		} else if err != nil {
			if err := s.Put(ctx, "empty-batch", []byte{}); err != nil {
				t.Fatal(err)
			}
		}
		for _, k := range []string{"empty-put", "empty-batch"} {
			v, err := s.Get(ctx, k)
			if err != nil || len(v) != 0 {
				t.Fatalf("Get(%s) = %v, %v; want empty value", k, v, err)
			}
		}
		got, err := s.BatchGet(ctx, []string{"empty-put", "empty-batch", "never-written"})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []string{"empty-put", "empty-batch"} {
			if v, ok := got[k]; !ok || len(v) != 0 {
				t.Fatalf("BatchGet[%s] = %v, %v; want present empty value", k, v, ok)
			}
		}
		if _, ok := got["never-written"]; ok {
			t.Fatal("BatchGet invented a value for a missing key")
		}
		keys, err := s.List(ctx, "empty-")
		if err != nil || len(keys) != 2 {
			t.Fatalf("List(empty-) = %v, %v; want both empty-valued keys", keys, err)
		}
	})
	t.Run("ListAfterDelete", func(t *testing.T) {
		// Prefix listings must track deletions exactly: Delete and
		// BatchDelete remove keys from List results, a sibling prefix is
		// untouched, and a re-put resurrects the key. AFT's read path
		// Lists a key's version prefix and trusts it — a stale entry
		// becomes a phantom version, a lost entry a vanished one.
		s := factory()
		ctx := context.Background()
		for _, k := range []string{"p/1", "p/2", "p/3", "p/4", "pq/1"} {
			if err := s.Put(ctx, k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Delete(ctx, "p/2"); err != nil {
			t.Fatal(err)
		}
		if err := s.BatchDelete(ctx, []string{"p/3", "p/missing"}); err != nil {
			t.Fatal(err)
		}
		want := func(wantKeys ...string) {
			t.Helper()
			got, err := s.List(ctx, "p/")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(wantKeys) {
				t.Fatalf("List(p/) = %v, want %v", got, wantKeys)
			}
			for i := range wantKeys {
				if got[i] != wantKeys[i] {
					t.Fatalf("List(p/) = %v, want %v", got, wantKeys)
				}
			}
		}
		want("p/1", "p/4")
		if got, err := s.List(ctx, "pq/"); err != nil || len(got) != 1 {
			t.Fatalf("List(pq/) = %v, %v; sibling prefix disturbed", got, err)
		}
		if err := s.Put(ctx, "p/2", []byte("again")); err != nil {
			t.Fatal(err)
		}
		want("p/1", "p/2", "p/4")
	})
	t.Run("ValueCopySemantics", func(t *testing.T) {
		s := factory()
		ctx := context.Background()
		in := []byte("abc")
		s.Put(ctx, "k", in)
		in[0] = 'X'
		v, _ := s.Get(ctx, "k")
		if string(v) != "abc" {
			t.Fatalf("store aliased caller slice: %q", v)
		}
		v[0] = 'Y'
		v2, _ := s.Get(ctx, "k")
		if string(v2) != "abc" {
			t.Fatalf("store aliased returned slice: %q", v2)
		}
	})
	t.Run("DeleteIdempotent", func(t *testing.T) {
		s := factory()
		ctx := context.Background()
		s.Put(ctx, "k", []byte("v"))
		if err := s.Delete(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(ctx, "k"); err != nil {
			t.Fatalf("second delete = %v", err)
		}
		if _, err := s.Get(ctx, "k"); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("Get after delete = %v", err)
		}
	})
	t.Run("ListPrefixOrdered", func(t *testing.T) {
		s := factory()
		ctx := context.Background()
		for _, k := range []string{"p/3", "p/1", "q/x", "p/2", "p"} {
			s.Put(ctx, k, nil)
		}
		got, err := s.List(ctx, "p/")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"p/1", "p/2", "p/3"}
		if len(got) != len(want) {
			t.Fatalf("List = %v", got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("List = %v, want %v", got, want)
			}
		}
	})
	t.Run("ListEmptyPrefix", func(t *testing.T) {
		s := factory()
		ctx := context.Background()
		s.Put(ctx, "a", nil)
		s.Put(ctx, "b", nil)
		got, err := s.List(ctx, "")
		if err != nil || len(got) != 2 {
			t.Fatalf("List(\"\") = %v, %v", got, err)
		}
	})
	t.Run("BatchPutContract", func(t *testing.T) {
		s := factory()
		ctx := context.Background()
		caps := s.Capabilities()
		items := map[string][]byte{"b1": {1}, "b2": {2}}
		err := s.BatchPut(ctx, items)
		if caps.BatchWrites {
			if err != nil {
				t.Fatalf("BatchPut on batch-capable store = %v", err)
			}
			for k := range items {
				if _, err := s.Get(ctx, k); err != nil {
					t.Fatalf("batched key %s unreadable: %v", k, err)
				}
			}
			if caps.MaxBatchSize > 0 {
				big := map[string][]byte{}
				for i := 0; i <= caps.MaxBatchSize; i++ {
					big[fmt.Sprintf("big-%d", i)] = nil
				}
				if err := s.BatchPut(ctx, big); !errors.Is(err, storage.ErrBatchTooLarge) {
					t.Fatalf("oversized batch = %v, want ErrBatchTooLarge", err)
				}
			}
		} else if err != nil && !errors.Is(err, storage.ErrBatchUnsupported) {
			// Batch-incapable stores may still apply single-shard batches
			// (Redis MSET); any failure must be ErrBatchUnsupported.
			t.Fatalf("BatchPut = %v, want nil or ErrBatchUnsupported", err)
		}
	})
	t.Run("PutReleasesValue", func(t *testing.T) {
		// The caller owns value again as soon as Put returns: AFT's flush
		// encodes every commit record into one pooled buffer. A store
		// that aliased the slice would see the next record under this
		// record's key.
		s := factory()
		ctx := context.Background()
		v := []byte("one")
		if err := s.Put(ctx, "p1", v); err != nil {
			t.Fatal(err)
		}
		if string(v) != "one" {
			t.Fatalf("Put mutated the caller's value: %q", v)
		}
		copy(v, "XYZ")
		if got, err := s.Get(ctx, "p1"); err != nil || string(got) != "one" {
			t.Fatalf("Get(p1) after the value was reused = %q, %v; want %q", got, err, "one")
		}
	})
	t.Run("BatchPutReleasesItems", func(t *testing.T) {
		// The caller owns items again as soon as BatchPut returns: AFT's
		// flush refills one pooled map for every call. A store that kept
		// the map, or aliased a value slice, would see the next batch's
		// contents under this batch's keys.
		s := factory()
		ctx := context.Background()
		v1, v2 := []byte("one"), []byte("two")
		items := map[string][]byte{"r1": v1, "r2": v2}
		if err := s.BatchPut(ctx, items); err != nil {
			if !s.Capabilities().BatchWrites && errors.Is(err, storage.ErrBatchUnsupported) {
				return // nothing was applied, so nothing can be aliased
			}
			t.Fatalf("BatchPut = %v", err)
		}
		if len(items) != 2 || string(items["r1"]) != "one" || string(items["r2"]) != "two" {
			t.Fatalf("BatchPut mutated the caller's map: %q", items)
		}
		v1[0], v2[0] = 'X', 'Y'
		clear(items)
		items["r3"] = []byte("three")
		items["r4"] = []byte("four")
		if err := s.BatchPut(ctx, items); err != nil && !errors.Is(err, storage.ErrBatchUnsupported) {
			t.Fatalf("second BatchPut through the reused map = %v", err)
		}
		clear(items)
		for k, want := range map[string]string{"r1": "one", "r2": "two"} {
			if got, err := s.Get(ctx, k); err != nil || string(got) != want {
				t.Fatalf("Get(%s) after the map was reused = %q, %v; want %q", k, got, err, want)
			}
		}
	})
	t.Run("BatchGetContract", func(t *testing.T) {
		// Every engine must answer BatchGet for ANY key count — chunking
		// (or fanning out point reads) is the engine's job — with missing
		// keys absent rather than erroring, and copy semantics intact.
		s := factory()
		ctx := context.Background()
		if got, err := s.BatchGet(ctx, nil); err != nil || len(got) != 0 {
			t.Fatalf("BatchGet(nil) = %v, %v", got, err)
		}
		const n = 300 // above every engine's read-batch limit
		keys := make([]string, 0, n)
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("bg-%03d", i)
			keys = append(keys, k)
			if i%3 != 0 { // every third key stays missing
				if err := s.Put(ctx, k, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, err := s.BatchGet(ctx, keys)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			v, ok := got[k]
			if i%3 == 0 {
				if ok {
					t.Fatalf("missing key %s present in BatchGet result", k)
				}
				continue
			}
			if !ok || len(v) != 1 || v[0] != byte(i) {
				t.Fatalf("BatchGet[%s] = %v, %v", k, v, ok)
			}
		}
		// Mutating a returned slice must not corrupt the store.
		probe := keys[1]
		got[probe][0] = 0xFF
		v, err := s.Get(ctx, probe)
		if err != nil || v[0] != 1 {
			t.Fatalf("BatchGet aliased stored value: %v, %v", v, err)
		}

		// Duplicates, present and missing, spread over the whole batch
		// (so over every shard of a sharded engine): the result equals
		// per-key Gets, and every value is a copy.
		dups := append([]string(nil), keys...)
		for i := 0; i < n; i += 7 {
			dups = append(dups, keys[i], keys[n-1-i])
		}
		got, err = s.BatchGet(ctx, dups)
		if err != nil {
			t.Fatal(err)
		}
		present := 0
		for _, k := range keys {
			want, err := s.Get(ctx, k)
			v, ok := got[k]
			switch {
			case errors.Is(err, storage.ErrNotFound):
				if ok {
					t.Fatalf("BatchGet with duplicates returned missing key %s", k)
				}
			case err != nil:
				t.Fatal(err)
			case !ok || string(v) != string(want):
				t.Fatalf("BatchGet with duplicates [%s] = %v, %v; Get = %v", k, v, ok, want)
			default:
				present++
				v[0] ^= 0xFF
			}
		}
		if len(got) != present {
			t.Fatalf("BatchGet with duplicates returned %d keys, want %d", len(got), present)
		}
		for k := range got {
			if v, err := s.Get(ctx, k); err != nil || string(v) == string(got[k]) {
				t.Fatalf("BatchGet with duplicates aliased stored value of %s: %v, %v", k, v, err)
			}
		}
	})
	t.Run("BatchGetChunking", func(t *testing.T) {
		// Engines exposing operation metrics must show batched reads
		// taking round-trip-count ≤ key-count: a multi-key primitive
		// coalesces into few BatchGets; a point-read fan-out (S3) bills
		// per-key Gets but still must not List or error.
		s := factory()
		ctx := context.Background()
		type metered interface{ Metrics() *storage.Metrics }
		sm, ok := s.(metered)
		if !ok {
			t.Skip("engine exposes no metrics")
		}
		const n = 130
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("ck-%03d", i)
			if err := s.Put(ctx, keys[i], []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		before := sm.Metrics().Snapshot()
		if _, err := s.BatchGet(ctx, keys); err != nil {
			t.Fatal(err)
		}
		d := sm.Metrics().Snapshot().Sub(before)
		if d.Lists != 0 {
			t.Fatalf("BatchGet issued %d Lists", d.Lists)
		}
		if calls := d.Calls(); calls > int64(n) {
			t.Fatalf("BatchGet of %d keys cost %d calls", n, calls)
		}
		if d.BatchGets > 0 && d.BatchGetItems != int64(n) {
			t.Fatalf("BatchGetItems = %d, want %d", d.BatchGetItems, n)
		}
	})
	t.Run("BatchDeleteContract", func(t *testing.T) {
		s := factory()
		ctx := context.Background()
		if err := s.BatchDelete(ctx, nil); err != nil {
			t.Fatalf("BatchDelete(nil) = %v", err)
		}
		const n = 60
		keys := make([]string, 0, 2*n)
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("bd-%03d", i)
			keys = append(keys, k, k+"-missing") // half the keys never exist
			if err := s.Put(ctx, k, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.BatchDelete(ctx, keys); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if _, err := s.Get(ctx, k); !errors.Is(err, storage.ErrNotFound) {
				t.Fatalf("Get(%s) after BatchDelete = %v, want ErrNotFound", k, err)
			}
		}
		// Idempotent: deleting the same set again is not an error.
		if err := s.BatchDelete(ctx, keys); err != nil {
			t.Fatalf("repeat BatchDelete = %v", err)
		}
	})
	t.Run("ContextCancelled", func(t *testing.T) {
		s := factory()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := s.Put(ctx, "k", nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("Put with cancelled ctx = %v", err)
		}
		if _, err := s.Get(ctx, "k"); !errors.Is(err, context.Canceled) {
			t.Fatalf("Get with cancelled ctx = %v", err)
		}
	})
	t.Run("ConcurrentReadersWriters", func(t *testing.T) {
		s := factory()
		ctx := context.Background()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := fmt.Sprintf("w%d-%d", w, i%10)
					if err := s.Put(ctx, k, []byte{byte(i)}); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.Get(ctx, k); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})
	t.Run("ReadYourAcknowledgedWrites", func(t *testing.T) {
		// Durability contract: once Put returns, every subsequent Get
		// (from any goroutine) sees the value — AFT's write-ordering
		// protocol depends on this.
		s := factory()
		ctx := context.Background()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("ack-%d", i)
				if err := s.Put(ctx, k, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				v, err := s.Get(ctx, k)
				if err != nil || v[0] != byte(i) {
					t.Errorf("acknowledged write not readable: %v, %v", v, err)
					return
				}
			}
		}()
		<-done
	})
	t.Run("AtomicBatchAcrossCrash", func(t *testing.T) {
		// An engine that reports AtomicBatches lets AFT write a commit
		// record in the same call as its data. Crash the engine under
		// concurrent batch writers and hold it to that: every batch is
		// readable whole or not at all, and an acknowledged one whole.
		s := factory()
		crasher, ok := s.(interface {
			Crash() error
			Reopen() error
		})
		if caps := s.Capabilities(); !caps.AtomicBatches {
			t.Skip("engine does not report AtomicBatches")
		} else if caps.MaxBatchSize != 0 {
			t.Fatalf("engine reports AtomicBatches with MaxBatchSize %d: one call must take a whole flush", caps.MaxBatchSize)
		}
		if !ok {
			t.Skip("engine cannot be crashed and reopened in place")
		}
		ctx := context.Background()
		const writers, perBatch = 3, 4
		for round := 0; round < 10; round++ {
			type batch struct {
				keys  []string
				acked bool
			}
			issued := make([][]batch, writers)
			acks := make(chan struct{}, 1024) // never blocks a writer: the crash below comes long before 1024 acks
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 300; i++ {
						b := batch{}
						items := make(map[string][]byte, perBatch)
						for j := 0; j < perBatch; j++ {
							k := fmt.Sprintf("ab-%d-%d-%d-%d", round, w, i, j)
							b.keys = append(b.keys, k)
							items[k] = []byte(k)
						}
						err := s.BatchPut(ctx, items)
						b.acked = err == nil
						issued[w] = append(issued[w], b)
						if err != nil {
							return // the crash; nothing else fails this engine
						}
						acks <- struct{}{}
					}
				}(w)
			}
			for i := 0; i <= round; i++ {
				<-acks // let a different amount of work land each round
			}
			if err := crasher.Crash(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if err := crasher.Reopen(); err != nil {
				t.Fatal(err)
			}
			for _, bs := range issued {
				for _, b := range bs {
					got, err := s.BatchGet(ctx, b.keys)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != 0 && len(got) != perBatch {
						t.Fatalf("round %d: %d of %d items of one BatchPut survived the crash", round, len(got), perBatch)
					}
					if b.acked && len(got) != perBatch {
						t.Fatalf("round %d: an acknowledged BatchPut was lost", round)
					}
				}
			}
		}
	})
}
