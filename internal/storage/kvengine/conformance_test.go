package kvengine

import (
	"testing"

	"aft/internal/storage"
	"aft/internal/storage/storagetest"
)

// TestConformance runs the suite over Redis at 8 shards, more shards than
// most of its batches have keys, so a multi-key call skips the requests of
// the shards it does not touch. The profiles at their own settings run it
// in their test packages.
func TestConformance(t *testing.T) {
	storagetest.Run(t, func() storage.Store { return NewRedis(8, Options{}) })
}

// TestConformanceSingleShard runs the suite over a one-shard Redis, on
// which every MSET is single-shard, so BatchPut accepts any batch.
func TestConformanceSingleShard(t *testing.T) {
	storagetest.Run(t, func() storage.Store { return NewRedis(1, Options{}) })
}
