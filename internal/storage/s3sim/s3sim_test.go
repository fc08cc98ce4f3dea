package s3sim

import (
	"context"
	"errors"
	"testing"

	"aft/internal/storage"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/storagetest"
)

func TestBasicOps(t *testing.T) {
	s := kvengine.NewS3(kvengine.Options{})
	ctx := context.Background()
	if _, err := s.Get(ctx, "obj"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("Get missing = %v", err)
	}
	if err := s.Put(ctx, "obj", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get(ctx, "obj")
	if err != nil || string(v) != "payload" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := s.Delete(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestNoBatchSupport(t *testing.T) {
	s := kvengine.NewS3(kvengine.Options{})
	caps := s.Capabilities()
	if caps.BatchWrites || caps.Transactions {
		t.Fatalf("capabilities = %+v, want none", caps)
	}
	err := s.BatchPut(context.Background(), map[string][]byte{"a": nil})
	if !errors.Is(err, storage.ErrBatchUnsupported) {
		t.Fatalf("BatchPut = %v, want ErrBatchUnsupported", err)
	}
}

func TestList(t *testing.T) {
	s := kvengine.NewS3(kvengine.Options{})
	ctx := context.Background()
	for _, k := range []string{"p/b", "p/a", "q/c"} {
		s.Put(ctx, k, nil)
	}
	got, err := s.List(ctx, "p/")
	if err != nil || len(got) != 2 || got[0] != "p/a" || got[1] != "p/b" {
		t.Fatalf("List = %v, %v", got, err)
	}
}

func TestUnavailable(t *testing.T) {
	s := kvengine.NewS3(kvengine.Options{})
	ctx := context.Background()
	s.SetAvailable(false)
	for _, err := range []error{
		func() error { _, e := s.Get(ctx, "k"); return e }(),
		s.Put(ctx, "k", nil),
		s.BatchPut(ctx, map[string][]byte{"k": nil}),
		s.Delete(ctx, "k"),
		func() error { _, e := s.List(ctx, ""); return e }(),
	} {
		if !errors.Is(err, storage.ErrUnavailable) {
			t.Fatalf("op while down = %v", err)
		}
	}
	s.SetAvailable(true)
	if err := s.Put(ctx, "k", nil); err != nil {
		t.Fatal(err)
	}
	// A batched call checks availability before it sends any request.
	storagetest.UnavailableBatchCalls(t, s, s.SetAvailable, 2*kvengine.S3MaxDeleteBatch+1)
}

func TestContextCancelled(t *testing.T) {
	s := kvengine.NewS3(kvengine.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Put(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Put with cancelled ctx = %v", err)
	}
}

func TestName(t *testing.T) {
	if kvengine.NewS3(kvengine.Options{}).Name() != "s3" {
		t.Fatal("wrong name")
	}
}
