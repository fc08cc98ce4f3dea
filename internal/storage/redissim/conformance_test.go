// Package redissim holds the tests of the Redis profile of kvengine
// (kvengine.NewRedis). kvengine.TestParity pins the three profiles side
// by side.
package redissim

import (
	"fmt"
	"testing"

	"aft/internal/storage"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/storagetest"
)

func TestConformance(t *testing.T) {
	storagetest.Run(t, func() storage.Store { return kvengine.NewRedis(4, kvengine.Options{}) })
}

// TestConformanceShards runs the suite at the paper's 2 shards and at an
// odd shard count, so a batch's per-shard grouping is checked against
// per-key reads at both.
func TestConformanceShards(t *testing.T) {
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			storagetest.Run(t, func() storage.Store { return kvengine.NewRedis(shards, kvengine.Options{}) })
		})
	}
}
