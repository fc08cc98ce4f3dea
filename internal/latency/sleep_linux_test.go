package latency

import (
	"runtime"
	"testing"
	"time"
)

func timerRunning() bool {
	t := processTimer()
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.running
}

// waitTimerStopped waits up to 2 s for the timer thread to exit.
func waitTimerStopped(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); timerRunning(); {
		if time.Now().After(deadline) {
			t.Fatal("timer thread still running 2 s after the last sleep")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTimerThreadExitsWhenIdle: a Sleep starts the timer thread, and the
// goroutine census is back to its starting count within 2 s of the last
// sleep. A zero Scale never starts it.
func TestTimerThreadExitsWhenIdle(t *testing.T) {
	if processTimer() == nil {
		t.Skip("timerfd unavailable: Sleep uses time.Sleep")
	}
	waitTimerStopped(t)
	before := runtime.NumGoroutine()
	(&Sleeper{Scale: 1}).Sleep(100 * time.Microsecond)
	if !timerRunning() {
		t.Fatal("Sleep did not start the timer thread")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine() - before; n > 0 {
		t.Fatalf("%d goroutines left 2 s after the last sleep", n)
	}
	NoSleep.Sleep(time.Hour)
	(&Sleeper{Scale: 0}).Sleep(time.Millisecond)
	if timerRunning() {
		t.Fatal("a zero-Scale Sleep started the timer thread")
	}
}
