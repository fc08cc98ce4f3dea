//go:build !race

package records

import (
	"testing"

	"aft/internal/idgen"
)

// The key builders run once per written version, per commit and per read:
// each must cost exactly the string it returns, escaping included.
func TestKeyBuildersAllocateOnce(t *testing.T) {
	id := idgen.ID{Timestamp: 1700000000000000000, UUID: "node-12-0123456789abcdef"}
	var sink string
	for name, f := range map[string]func(){
		"DataKey":          func() { sink = DataKey("user-key", id) },
		"DataKey/escaped":  func() { sink = DataKey("a/b%c", id) },
		"CommitKey":        func() { sink = CommitKey(id) },
		"PackKey":          func() { sink = PackKey(id) },
		"SpillKey":         func() { sink = SpillKey("17_node-1-ab", "user-key") },
		"SpillKey/escaped": func() { sink = SpillKey("17_node-1-ab", "a/b%c") },
	} {
		if got := testing.AllocsPerRun(100, f); got != 1 {
			t.Errorf("%s: %v allocs/op, want 1", name, got)
		}
	}
	_ = sink
}
