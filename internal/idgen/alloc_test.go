//go:build !race

package idgen

import "testing"

func TestStringAllocatesOnce(t *testing.T) {
	id := ID{Timestamp: 1700000000000000000, UUID: "node-12-0123456789abcdef"}
	var sink string
	if got := testing.AllocsPerRun(100, func() { sink = id.String() }); got != 1 {
		t.Errorf("ID.String: %v allocs/op, want 1", got)
	}
	_ = sink
}
