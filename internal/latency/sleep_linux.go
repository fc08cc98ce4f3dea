//go:build linux

package latency

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// On Linux every Sleep waits on one process-wide timer thread: a goroutine
// blocked in read on a timerfd armed at the earliest pending deadline. Go's
// own timers are woken from epoll_wait, whose millisecond timeout rounds a
// 500 µs wait up to ~1.1 ms when the process is idle; a timerfd wakes
// within tens of microseconds. Sleepers share the thread, so the process
// gains one OS thread however many wait: the one blocked in read. The
// goroutine is not locked to that thread, because runtime.LockOSThread
// also starts the runtime's template thread, a second one. The goroutine
// exits after idleExit without sleepers (goroutine censuses in tests would
// otherwise count it as a leak). Where timerfd_create fails, Sleep falls
// back to time.Sleep.

const (
	clockMonotonic  = 1 // CLOCK_MONOTONIC
	tfdTimerAbstime = 1 // TFD_TIMER_ABSTIME
	idleExit        = 100 * time.Millisecond
)

// epoch anchors deadlines: a deadline is nanoseconds of Go's monotonic
// clock since epoch.
var epoch = time.Now()

func monoNow() int64 { return int64(time.Since(epoch)) }

type waiter struct {
	at int64
	ch chan struct{}
}

// timerThread is the process's one timer thread and the min-heap of the
// sleepers it will wake.
type timerThread struct {
	fd int
	// offset converts a deadline to CLOCK_MONOTONIC. It is measured once
	// and rounded up, so the timerfd never fires before a deadline.
	offset int64

	mu      sync.Mutex
	heap    []waiter // min-heap on at
	running bool
	armed   int64 // deadline the timerfd is set for; 0 while stopped
	idleAt  int64 // the thread exits at a wake after this with no sleepers
}

var (
	timerOnce sync.Once
	timer     *timerThread // nil where timerfd is unavailable
	wakeChans = sync.Pool{New: func() any { return make(chan struct{}, 1) }}
)

// processTimer returns the process's timer, opening it on first use, or
// nil where timerfd is unavailable.
func processTimer() *timerThread {
	timerOnce.Do(func() { timer = openTimer() })
	return timer
}

func openTimer() *timerThread {
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	before := monoNow()
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockMonotonic, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		syscall.Close(int(fd))
		return nil
	}
	return &timerThread{fd: int(fd), offset: ts.Nano() - before}
}

func sleep(d time.Duration) {
	t := processTimer()
	if t == nil {
		time.Sleep(d)
		return
	}
	at := monoNow() + int64(d)
	ch := wakeChans.Get().(chan struct{})
	t.mu.Lock()
	t.push(waiter{at: at, ch: ch})
	if !t.running {
		t.running = true
		go t.run()
	}
	if t.armed == 0 || at < t.armed {
		t.arm(at)
	}
	t.mu.Unlock()
	<-ch
	wakeChans.Put(ch)
}

// arm sets the timerfd to fire at deadline at. Callers hold t.mu.
func (t *timerThread) arm(at int64) {
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(at + t.offset)}
	if _, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(t.fd), tfdTimerAbstime,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		panic("latency: timerfd_settime: " + errno.Error())
	}
	t.armed = at
}

// run is the timer thread. It wakes every sleeper whose deadline has
// passed, re-arms for the next deadline, and exits once idle.
func (t *timerThread) run() {
	var buf [8]byte
	var due []chan struct{}
	for {
		for {
			_, err := syscall.Read(t.fd, buf[:])
			if err == nil {
				break
			}
			if err != syscall.EINTR {
				panic("latency: timerfd read: " + err.Error())
			}
		}
		now := monoNow()
		t.mu.Lock()
		for len(t.heap) > 0 && t.heap[0].at <= now {
			due = append(due, t.pop())
		}
		switch {
		case len(t.heap) > 0:
			t.arm(t.heap[0].at)
		case len(due) > 0 || now < t.idleAt:
			if len(due) > 0 {
				t.idleAt = now + int64(idleExit)
			}
			t.arm(t.idleAt)
		default:
			t.running = false
			t.armed = 0
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
		for i, ch := range due {
			ch <- struct{}{}
			due[i] = nil
		}
		if len(due) > 0 {
			// Let the woken sleepers run before the next read blocks:
			// on one P they would otherwise wait for sysmon to take the
			// P back from the read, which doubles a 100 µs wait.
			runtime.Gosched()
		}
		due = due[:0]
	}
}

func (t *timerThread) push(w waiter) {
	t.heap = append(t.heap, w)
	h := t.heap
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (t *timerThread) pop() chan struct{} {
	h := t.heap
	ch := h[0].ch
	n := len(h) - 1
	h[0] = h[n]
	h[n] = waiter{}
	h = h[:n]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < n && h[l].at < h[m].at {
			m = l
		}
		if r := l + 1; r < n && h[r].at < h[m].at {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	t.heap = h
	return ch
}
