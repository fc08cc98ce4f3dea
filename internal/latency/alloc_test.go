//go:build !race

package latency

import (
	"testing"
	"time"
)

// TestSleepAllocBudget: a Sleep allocates nothing. Its wake channel is
// pooled and the timer's heap holds values, not boxed entries.
func TestSleepAllocBudget(t *testing.T) {
	s := &Sleeper{Scale: 1}
	if got := testing.AllocsPerRun(200, func() { s.Sleep(20 * time.Microsecond) }); got != 0 {
		t.Errorf("Sleep costs %v allocs, want 0", got)
	}
}
