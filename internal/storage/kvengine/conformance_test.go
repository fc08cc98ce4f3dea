package kvengine

import (
	"context"
	"testing"

	"aft/internal/storage"
	"aft/internal/storage/storagetest"
)

// storeAdapter exposes a bare Engine as a storage.Store so the shared
// conformance suite can verify the semantics every simulator inherits
// from it (durability once acknowledged, copy semantics, ordered prefix
// listing, concurrent safety).
type storeAdapter struct {
	e *Engine
}

func (s *storeAdapter) Name() string { return "kvengine" }

func (s *storeAdapter) Capabilities() storage.Capabilities {
	return storage.Capabilities{BatchWrites: true}
}

func (s *storeAdapter) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, ok := s.e.Get(key)
	if !ok {
		return nil, storage.ErrNotFound
	}
	return v, nil
}

func (s *storeAdapter) Put(ctx context.Context, key string, value []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.e.Put(key, value)
	return nil
}

func (s *storeAdapter) BatchPut(ctx context.Context, items map[string][]byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.e.PutAll(items)
	return nil
}

func (s *storeAdapter) BatchGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	s.e.GetInto(out, keys)
	return out, nil
}

func (s *storeAdapter) BatchDelete(ctx context.Context, keys []string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.e.DeleteAll(keys)
	return nil
}

func (s *storeAdapter) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.e.Delete(key)
	return nil
}

func (s *storeAdapter) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.e.List(prefix), nil
}

func TestConformance(t *testing.T) {
	storagetest.Run(t, func() storage.Store { return &storeAdapter{e: New(4)} })
}

func TestConformanceSingleShard(t *testing.T) {
	storagetest.Run(t, func() storage.Store { return &storeAdapter{e: New(1)} })
}
