package redissim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aft/internal/storage"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/storagetest"
)

func TestBasicOps(t *testing.T) {
	s := kvengine.NewRedis(0, kvengine.Options{})
	ctx := context.Background()
	if s.NumShards() != 2 {
		t.Fatalf("default shards = %d, want 2 (paper config)", s.NumShards())
	}
	if err := s.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(ctx, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := s.Get(ctx, "missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get missing = %v", err)
	}
	if err := s.Delete(ctx, "k"); err != nil {
		t.Fatal(err)
	}
}

func TestCapabilitiesNoBatch(t *testing.T) {
	caps := kvengine.NewRedis(0, kvengine.Options{}).Capabilities()
	if caps.BatchWrites || caps.Transactions {
		t.Fatalf("capabilities = %+v, want none", caps)
	}
}

// sameShardKeys returns n keys that all hash to one shard, plus one key on a
// different shard.
func sameShardKeys(s *kvengine.Store, n int) (same []string, other string) {
	target := -1
	for i := 0; len(same) < n || other == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		sh := s.ShardFor(k)
		if target == -1 {
			target = sh
		}
		if sh == target && len(same) < n {
			same = append(same, k)
		} else if sh != target && other == "" {
			other = k
		}
		if i > 100000 {
			panic("could not find keys")
		}
	}
	return same, other
}

func TestMSETSingleShard(t *testing.T) {
	s := kvengine.NewRedis(2, kvengine.Options{})
	ctx := context.Background()
	same, _ := sameShardKeys(s, 3)
	items := map[string][]byte{}
	for i, k := range same {
		items[k] = []byte{byte(i)}
	}
	if err := s.BatchPut(ctx, items); err != nil {
		t.Fatalf("single-shard MSET = %v", err)
	}
	for k := range items {
		if _, err := s.Get(ctx, k); err != nil {
			t.Fatalf("key %s missing after MSET", k)
		}
	}
	if s.Metrics().Batches.Load() != 1 {
		t.Fatal("MSET not counted as one batch")
	}
}

func TestMSETCrossShardRejected(t *testing.T) {
	s := kvengine.NewRedis(2, kvengine.Options{})
	ctx := context.Background()
	same, other := sameShardKeys(s, 1)
	items := map[string][]byte{same[0]: nil, other: nil}
	if err := s.BatchPut(ctx, items); !errors.Is(err, storage.ErrBatchUnsupported) {
		t.Fatalf("cross-shard MSET = %v, want ErrBatchUnsupported", err)
	}
	if err := s.BatchPut(ctx, nil); err != nil {
		t.Fatalf("empty MSET = %v", err)
	}
}

func TestListAcrossShards(t *testing.T) {
	s := kvengine.NewRedis(4, kvengine.Options{})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		s.Put(ctx, fmt.Sprintf("pfx/%02d", i), nil)
	}
	got, err := s.List(ctx, "pfx/")
	if err != nil || len(got) != 20 {
		t.Fatalf("List = %d keys, %v", len(got), err)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("List unsorted at %d: %v", i, got)
		}
	}
}

func TestUnavailable(t *testing.T) {
	s := kvengine.NewRedis(0, kvengine.Options{})
	ctx := context.Background()
	s.SetAvailable(false)
	if err := s.Put(ctx, "k", nil); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("Put while down = %v", err)
	}
	s.SetAvailable(true)
	if err := s.Put(ctx, "k", nil); err != nil {
		t.Fatal(err)
	}
	// A batched call checks availability before it sends any request.
	storagetest.UnavailableBatchCalls(t, s, s.SetAvailable, 100)
}

func TestName(t *testing.T) {
	if kvengine.NewRedis(0, kvengine.Options{}).Name() != "redis" {
		t.Fatal("wrong name")
	}
}
