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

// TestNewIDAllocatesOnce: minting an ID costs its UUID string and nothing
// else — no escaping entropy buffer, no concatenation temporaries.
func TestNewIDAllocatesOnce(t *testing.T) {
	g := NewGenerator(NewVirtualClock(0, 1), "node-1")
	g.SeedEntropy(7)
	var sink ID
	if got := testing.AllocsPerRun(1000, func() { sink = g.NewID() }); got != 1 {
		t.Errorf("NewID: %v allocs/op, want 1", got)
	}
	_ = sink
}
