package wire

import (
	"context"
	"sync"
	"time"
)

// deadlineCtx is the context one dispatched RPC runs under: the conn
// context (server-lifetime cancellation, values) plus the op budget the
// client shipped. context.WithTimeout arms a runtime timer per call — four
// allocations an RPC that answers in microseconds never uses. Here
// Deadline and Err are computed from the clock and the parent, and the
// Done channel, which only a parked wait needs (admission queue, coalesced
// fetch, duplicate commit), is created — with its timer and its
// registration on the parent — by the first Done call. dispatch cancels
// the context when the handler returns, which releases both. A handler
// reuses its context for its next request unless a Done call armed it
// (handler.deadline).
//
// Invariant under mu: done, once created, is open exactly while err is nil.
type deadlineCtx struct {
	context.Context
	// parentDone is Context.Done(), kept so Err polls the parent with a
	// lock-free channel receive: every handler of a conn shares the parent,
	// and its Err takes a mutex.
	parentDone <-chan struct{}
	deadline   time.Time

	mu         sync.Mutex
	err        error
	done       chan struct{}
	timer      *time.Timer
	stopParent func() bool
}

func withDeadline(parent context.Context, d time.Duration) *deadlineCtx {
	c := new(deadlineCtx)
	c.reset(parent, d)
	return c
}

// reset makes c a fresh context bounding d under parent. c must not be
// armed: a released, never-armed context has no timer and no registration
// left to fire.
func (c *deadlineCtx) reset(parent context.Context, d time.Duration) {
	c.Context, c.parentDone, c.deadline = parent, parent.Done(), time.Now().Add(d)
	c.err = nil
}

// armed reports whether a Done call created the context's channel, timer
// and parent registration.
func (c *deadlineCtx) armed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done != nil
}

func (c *deadlineCtx) Deadline() (time.Time, bool) {
	// The conn context carries no deadline of its own.
	return c.deadline, true
}

func (c *deadlineCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		select {
		case <-c.parentDone:
			c.settleLocked(c.Context.Err())
		default:
			if !time.Now().Before(c.deadline) {
				c.settleLocked(context.DeadlineExceeded)
			}
		}
	}
	return c.err
}

func (c *deadlineCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.err != nil {
			close(c.done)
		} else {
			c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.cancel(context.DeadlineExceeded) })
			c.stopParent = context.AfterFunc(c.Context, func() { c.cancel(c.Context.Err()) })
		}
	}
	return c.done
}

// cancel settles the context with err unless it already settled.
func (c *deadlineCtx) cancel(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.settleLocked(err)
	}
	c.mu.Unlock()
}

func (c *deadlineCtx) settleLocked(err error) {
	c.err = err
	if c.done != nil {
		close(c.done)
		c.timer.Stop()
		c.stopParent()
	}
}
