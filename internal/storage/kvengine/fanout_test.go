package kvengine

import (
	"slices"
	"testing"

	"aft/internal/latency"
)

// TestFanoutRunsEachRequestOnce: a request of no items is neither sent nor
// run; every other request runs once, in order, and a nil run is allowed.
func TestFanoutRunsEachRequestOnce(t *testing.T) {
	items := []int{2, 0, 1, 0, 3}
	var ran []int
	fanout(nil, nil, latency.OpGet, len(items),
		func(i int) int { return items[i] },
		func(i int) { ran = append(ran, i) })
	if !slices.Equal(ran, []int{0, 2, 4}) {
		t.Fatalf("ran requests %v, want [0 2 4]", ran)
	}
	fanout(nil, nil, latency.OpList, 2, func(int) int { return 1 }, nil)

	var chunks [][]string
	keys := []string{"a", "b", "c", "d", "e"}
	fanoutChunks(nil, nil, latency.OpGet, keys, 2, func(c []string) { chunks = append(chunks, c) })
	if len(chunks) != 3 || !slices.Equal(chunks[2], []string{"e"}) {
		t.Fatalf("chunks of 2 = %v, want [a b] [c d] [e]", chunks)
	}
	fanoutChunks(nil, nil, latency.OpGet, nil, 2, func([]string) { t.Fatal("ran a request of an empty call") })
}
