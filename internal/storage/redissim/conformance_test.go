package redissim

import (
	"fmt"
	"testing"

	"aft/internal/storage"
	"aft/internal/storage/storagetest"
)

func TestConformance(t *testing.T) {
	storagetest.Run(t, func() storage.Store { return New(Options{Shards: 4}) })
}

// TestConformanceShards runs the suite at the paper's 2 shards and at an
// odd shard count, so a batch's per-shard grouping is checked against
// per-key reads at both.
func TestConformanceShards(t *testing.T) {
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			storagetest.Run(t, func() storage.Store { return New(Options{Shards: shards}) })
		})
	}
}
