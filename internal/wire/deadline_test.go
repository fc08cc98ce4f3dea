package wire

import (
	"context"
	"testing"
	"time"

	"aft/internal/telemetry"
)

func waitDone(t *testing.T, ctx context.Context, what string) {
	t.Helper()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: Done never fired", what)
	}
}

// TestDeadlineCtxExpiresWithoutTimer: Deadline is reported, and Err flips
// to DeadlineExceeded at the deadline from the clock alone — no Done call,
// so no timer and no registration on the parent ever existed.
func TestDeadlineCtxExpiresWithoutTimer(t *testing.T) {
	before := time.Now()
	c := withDeadline(context.Background(), 30*time.Millisecond)
	dl, ok := c.Deadline()
	if !ok || dl.Before(before.Add(30*time.Millisecond)) || dl.After(time.Now().Add(30*time.Millisecond)) {
		t.Fatalf("Deadline() = %v, %v; want about %v", dl, ok, before.Add(30*time.Millisecond))
	}
	if err := c.Err(); err != nil {
		t.Fatalf("Err() before the deadline = %v", err)
	}
	time.Sleep(time.Until(dl) + time.Millisecond)
	if err := c.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err() after the deadline = %v, want DeadlineExceeded", err)
	}
	if c.timer != nil || c.stopParent != nil {
		t.Fatal("a timer was armed though Done was never called")
	}
	// A late Done is already closed, and still arms nothing.
	waitDone(t, c, "Done after expiry")
	if c.timer != nil {
		t.Fatal("Done on an expired context armed a timer")
	}
	// The first error sticks.
	c.cancel(context.Canceled)
	if err := c.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err() changed to %v after settling", err)
	}
}

func TestDeadlineCtxDoneFiresAtDeadline(t *testing.T) {
	c := withDeadline(context.Background(), 20*time.Millisecond)
	waitDone(t, c, "deadline")
	if err := c.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err() = %v, want DeadlineExceeded", err)
	}
}

// TestDeadlineCtxFollowsParent: the conn context's cancellation (server
// Close) reaches Err with or without a Done channel, fires Done, and
// carries the parent's error.
func TestDeadlineCtxFollowsParent(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	polled := withDeadline(parent, time.Hour)
	parked := withDeadline(parent, time.Hour)
	done := parked.Done()
	select {
	case <-done:
		t.Fatal("Done fired before the parent was canceled")
	default:
	}
	cancel()
	if err := polled.Err(); err != context.Canceled {
		t.Fatalf("Err() after parent cancel = %v, want Canceled", err)
	}
	waitDone(t, parked, "parent cancel")
	if err := parked.Err(); err != context.Canceled {
		t.Fatalf("parked Err() = %v, want Canceled", err)
	}
}

// TestDeadlineCtxCancelsChildren: contexts derived by the code under it
// (context.WithCancel) end when it does, with its error.
func TestDeadlineCtxCancelsChildren(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		d    time.Duration
		end  func(*deadlineCtx)
		want error
	}{
		{"deadline", 20 * time.Millisecond, func(*deadlineCtx) {}, context.DeadlineExceeded},
		{"release", time.Hour, func(c *deadlineCtx) { c.cancel(context.Canceled) }, context.Canceled},
	} {
		c := withDeadline(parent, tc.d)
		child, stop := context.WithCancel(c)
		tc.end(c)
		waitDone(t, child, tc.name)
		if err := child.Err(); err != tc.want {
			t.Errorf("%s: child Err() = %v, want %v", tc.name, err, tc.want)
		}
		stop()
		c.cancel(context.Canceled)
	}
}

// TestDeadlineCtxCarriesValues: values set below it (the node's
// telemetry.WithTrace) and above it (the conn context) both resolve.
func TestDeadlineCtxCarriesValues(t *testing.T) {
	tc := telemetry.TraceContext{ID: "abc", Sampled: true}
	c := withDeadline(telemetry.WithTraceContext(context.Background(), tc), time.Hour)
	defer c.cancel(context.Canceled)
	if got := telemetry.TraceContextFrom(c); got != tc {
		t.Fatalf("parent value through deadlineCtx = %+v, want %+v", got, tc)
	}
	tr := telemetry.NewTracer(telemetry.TracerOptions{}).Begin("tx", tc)
	if tr == nil {
		t.Fatal("tracer did not retain a client-sampled trace")
	}
	child := telemetry.WithTrace(c, tr)
	if telemetry.TraceFrom(child) != tr {
		t.Fatal("trace set under deadlineCtx not found")
	}
	if dl, ok := child.Deadline(); !ok || !dl.Equal(c.deadline) {
		t.Fatalf("child Deadline() = %v, %v", dl, ok)
	}
}

// TestDeadlineCtxReleaseStopsTimer: what dispatch's deferred cancel leaves
// behind after a handler that parked (so Done armed the timer and the
// parent registration): nothing. Both stop calls report "already stopped".
func TestDeadlineCtxReleaseStopsTimer(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := withDeadline(parent, time.Hour)
	done := c.Done()
	if c.timer == nil || c.stopParent == nil {
		t.Fatal("Done armed no timer")
	}
	c.cancel(context.Canceled)
	select {
	case <-done:
	default:
		t.Fatal("release did not close Done")
	}
	if c.timer.Stop() {
		t.Fatal("release left the deadline timer running")
	}
	if c.stopParent() {
		t.Fatal("release left the context registered on the conn context")
	}
	if err := c.Err(); err != context.Canceled {
		t.Fatalf("Err() after release = %v, want Canceled", err)
	}
}
