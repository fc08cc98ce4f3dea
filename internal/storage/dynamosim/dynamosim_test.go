package dynamosim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aft/internal/latency"
	"aft/internal/retry"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/storagetest"
)

func newTestStore() *kvengine.DynamoDB { return kvengine.NewDynamoDB(kvengine.Options{}) }

func TestBasicOps(t *testing.T) {
	s := newTestStore()
	ctx := context.Background()
	if _, err := s.Get(ctx, "k"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(ctx, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := s.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ctx, "k"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get after delete = %v", err)
	}
}

func TestCapabilities(t *testing.T) {
	caps := newTestStore().Capabilities()
	if !caps.BatchWrites || caps.MaxBatchSize != kvengine.DynamoDBMaxBatch || !caps.Transactions {
		t.Fatalf("capabilities = %+v", caps)
	}
	if newTestStore().Name() != "dynamodb" {
		t.Fatal("wrong name")
	}
}

func TestBatchPut(t *testing.T) {
	s := newTestStore()
	ctx := context.Background()
	items := map[string][]byte{}
	for i := 0; i < kvengine.DynamoDBMaxBatch; i++ {
		items[fmt.Sprintf("k%d", i)] = []byte{byte(i)}
	}
	if err := s.BatchPut(ctx, items); err != nil {
		t.Fatal(err)
	}
	for k := range items {
		if _, err := s.Get(ctx, k); err != nil {
			t.Fatalf("missing %s after batch", k)
		}
	}
	items["extra"] = nil
	if err := s.BatchPut(ctx, items); !errors.Is(err, storage.ErrBatchTooLarge) {
		t.Fatalf("oversized batch = %v, want ErrBatchTooLarge", err)
	}
	if err := s.BatchPut(ctx, nil); err != nil {
		t.Fatalf("empty batch = %v", err)
	}
}

func TestList(t *testing.T) {
	s := newTestStore()
	ctx := context.Background()
	for _, k := range []string{"commit/3", "commit/1", "data/x", "commit/2"} {
		if err := s.Put(ctx, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.List(ctx, "commit/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"commit/1", "commit/2", "commit/3"}
	if len(got) != 3 {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

func TestTransactPutAtomicVisibility(t *testing.T) {
	s := newTestStore()
	ctx := context.Background()
	if err := s.TransactPut(ctx, map[string][]byte{"a": []byte("1"), "b": []byte("1")}); err != nil {
		t.Fatal(err)
	}
	got, err := s.TransactGet(ctx, []string{"a", "b", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["a"]) != "1" || string(got["b"]) != "1" {
		t.Fatalf("TransactGet = %v", got)
	}
	if got["missing"] != nil {
		t.Fatalf("missing key = %v, want nil", got["missing"])
	}
}

func TestTransactConflictWriteWrite(t *testing.T) {
	// Hold a write lock via a slow transaction, then observe a conflict.
	s := kvengine.NewDynamoDB(kvengine.Options{
		Latency: latency.NewModel(latency.Profile{
			latency.OpTransact: {Median: 50 * time.Millisecond},
		}, 1),
		Sleeper: latency.RealTime,
	})
	ctx := context.Background()
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		done <- s.TransactPut(ctx, map[string][]byte{"x": []byte("slow")})
	}()
	<-started
	time.Sleep(5 * time.Millisecond) // let the slow txn take its locks
	err := s.TransactPut(ctx, map[string][]byte{"x": []byte("fast")})
	if !errors.Is(err, storage.ErrConflict) {
		t.Fatalf("concurrent TransactPut = %v, want ErrConflict", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("slow txn failed: %v", err)
	}
	if s.Metrics().Conflicts.Load() == 0 {
		t.Fatal("conflict not counted")
	}
}

func TestTransactReadersDoNotConflict(t *testing.T) {
	s := kvengine.NewDynamoDB(kvengine.Options{
		Latency: latency.NewModel(latency.Profile{
			latency.OpTransact: {Median: 30 * time.Millisecond},
		}, 1),
		Sleeper: latency.RealTime,
	})
	ctx := context.Background()
	if err := s.Put(ctx, "x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.TransactGet(ctx, []string{"x"})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent readers conflicted: %v", err)
		}
	}
}

func TestTransactReadWriteConflict(t *testing.T) {
	s := kvengine.NewDynamoDB(kvengine.Options{
		Latency: latency.NewModel(latency.Profile{
			latency.OpTransact: {Median: 50 * time.Millisecond},
		}, 1),
		Sleeper: latency.RealTime,
	})
	ctx := context.Background()
	go s.TransactGet(ctx, []string{"y"})
	time.Sleep(5 * time.Millisecond)
	if err := s.TransactPut(ctx, map[string][]byte{"y": []byte("w")}); !errors.Is(err, storage.ErrConflict) {
		t.Fatalf("write during read = %v, want ErrConflict", err)
	}
}

func TestUnavailable(t *testing.T) {
	s := newTestStore()
	ctx := context.Background()
	s.SetAvailable(false)
	if _, err := s.Get(ctx, "k"); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("Get while down = %v", err)
	}
	if err := s.Put(ctx, "k", nil); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("Put while down = %v", err)
	}
	s.SetAvailable(true)
	if err := s.Put(ctx, "k", nil); err != nil {
		t.Fatalf("Put after recovery = %v", err)
	}
	// A batched call checks availability before it sends any request.
	storagetest.UnavailableBatchCalls(t, s, s.SetAvailable, 3*kvengine.DynamoDBMaxReadBatch)
}

func TestContextCancellation(t *testing.T) {
	s := newTestStore()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Get(ctx, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Get with cancelled ctx = %v", err)
	}
}

func TestMetricsCounting(t *testing.T) {
	s := newTestStore()
	ctx := context.Background()
	s.Put(ctx, "a", nil)
	s.Get(ctx, "a")
	s.BatchPut(ctx, map[string][]byte{"b": nil, "c": nil})
	s.Delete(ctx, "a")
	s.List(ctx, "")
	s.TransactPut(ctx, map[string][]byte{"d": nil})
	m := s.Metrics().Snapshot()
	if m.Puts != 1 || m.Gets != 1 || m.Batches != 1 || m.BatchItems != 2 ||
		m.Deletes != 1 || m.Lists != 1 || m.Transacts != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Calls() != 6 {
		t.Fatalf("calls = %d, want 6", m.Calls())
	}
}

func TestConcurrentMixed(t *testing.T) {
	s := newTestStore()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("w%d-%d", w, i%20)
				s.Put(ctx, k, []byte{1})
				s.Get(ctx, k)
				s.TransactPut(ctx, map[string][]byte{k + "t": {2}})
			}
		}(w)
	}
	wg.Wait()
}

// TestItemSizeLimit: like DynamoDB, the simulator refuses an item whose key
// and value exceed 400 KB, on Put and on BatchPut, writes nothing of the
// refused request, and says so with an error no retry discipline redoes.
func TestItemSizeLimit(t *testing.T) {
	s := newTestStore()
	ctx := context.Background()
	fits := make([]byte, kvengine.DynamoDBMaxItemSize-len("k"))
	if err := s.Put(ctx, "k", fits); err != nil {
		t.Fatalf("Put of exactly %d bytes = %v", kvengine.DynamoDBMaxItemSize, err)
	}
	big := make([]byte, kvengine.DynamoDBMaxItemSize)
	err := s.Put(ctx, "big", big)
	if !errors.Is(err, storage.ErrItemTooLarge) {
		t.Fatalf("oversized Put = %v, want ErrItemTooLarge", err)
	}
	if retry.Retriable(err) {
		t.Fatalf("oversized Put's error %v is retriable", err)
	}
	err = s.BatchPut(ctx, map[string][]byte{"small": []byte("v"), "big": big})
	if !errors.Is(err, storage.ErrItemTooLarge) {
		t.Fatalf("BatchPut with an oversized item = %v, want ErrItemTooLarge", err)
	}
	for _, k := range []string{"big", "small"} {
		if _, err := s.Get(ctx, k); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("refused write of %s landed: %v", k, err)
		}
	}
}
