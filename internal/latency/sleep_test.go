package latency

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestSleepNeverEarly: every Sleep, alone or beside other sleepers with
// earlier and later deadlines, lasts at least the time it was asked for.
func TestSleepNeverEarly(t *testing.T) {
	s := &Sleeper{Scale: 1}
	durs := []time.Duration{time.Microsecond, 50 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond, 3500 * time.Microsecond}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				d := durs[(w+i)%len(durs)]
				start := time.Now()
				s.Sleep(d)
				if got := time.Since(start); got < d {
					t.Errorf("Sleep(%v) returned after %v", d, got)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSleepStress: 256 goroutines sleep random waits of up to 2 ms for a
// second. Every call returns, and none returns early.
func TestSleepStress(t *testing.T) {
	s := &Sleeper{Scale: 1}
	end := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	for g := 0; g < 256; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for time.Now().Before(end) {
				d := time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
				start := time.Now()
				s.Sleep(d)
				if got := time.Since(start); got < d {
					t.Errorf("Sleep(%v) returned after %v", d, got)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
