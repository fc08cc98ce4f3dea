package wire

// pipeline.go is the pipelining on top of the frame codec: a frameWriter
// that serializes and group-flushes frame writes from many goroutines
// onto one socket, and the client's pipeConn that keeps many ops in
// flight per connection, demuxing out-of-order completions by request
// ID. The server's mirror image lives in server.go (serveFrames).

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// frameWriter batches frame writes from many goroutines onto one conn.
// Producers append encoded frames to a pending buffer under the lock; a
// dedicated writer goroutine swaps the buffer out and writes the whole
// batch in one syscall. The batching is self-clocking, like the WAL's
// group fsync: while one Write syscall is in flight, every
// frame produced in the meantime accumulates into the next batch, so
// syscalls per frame fall as concurrency rises — which is where the
// protocol's throughput at high worker counts comes from.
type frameWriter struct {
	conn net.Conn
	m    *Metrics

	mu      sync.Mutex
	cond    *sync.Cond // signaled when pending gains frames or on close
	pending []byte     // encoded frames awaiting the writer goroutine
	err     error      // sticky: first write failure poisons the writer
	closed  bool
}

func newFrameWriter(conn net.Conn, m *Metrics) *frameWriter {
	w := &frameWriter{conn: conn, m: m}
	w.cond = sync.NewCond(&w.mu)
	go w.writeLoop()
	return w
}

// writeFrame appends one encoded frame to the pending batch and wakes
// the writer. It returns once the frame is accepted: delivery is
// asynchronous, and a transport failure surfaces through the conn's
// read side (the writer closes the conn), through the op's own
// deadline, or as the sticky error on the next write.
func (w *frameWriter) writeFrame(encode func([]byte) []byte) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.closed {
		w.mu.Unlock()
		return net.ErrClosed
	}
	n := len(w.pending)
	w.pending = encode(w.pending)
	w.m.FramesSent.Add(1)
	w.m.BytesSent.Add(int64(len(w.pending) - n))
	w.cond.Signal()
	w.mu.Unlock()
	return nil
}

// writeLoop is the conn's single writer: swap out whatever has
// accumulated, write it in one syscall, repeat. On write failure it
// closes the conn so the read side tears the connection down through
// the normal path, failing in-flight ops immediately.
func (w *frameWriter) writeLoop() {
	var spare []byte
	w.mu.Lock()
	for {
		for len(w.pending) == 0 && !w.closed && w.err == nil {
			w.cond.Wait()
		}
		if w.err != nil || (w.closed && len(w.pending) == 0) {
			w.mu.Unlock()
			return
		}
		batch := w.pending
		w.pending = spare[:0]
		w.mu.Unlock()

		_, err := w.conn.Write(batch)
		spare = batch // reuse the written buffer on the next swap

		w.mu.Lock()
		if err != nil {
			w.err = err
			w.mu.Unlock()
			w.conn.Close()
			return
		}
		w.m.Flushes.Add(1)
	}
}

// close stops the writer goroutine after it drains the accepted
// backlog. It does not close the conn — that stays with the owner.
func (w *frameWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *frameWriter) writeRequest(id uint64, req *Request) error {
	return w.writeFrame(func(b []byte) []byte {
		return appendRequestFrame(b, id, req)
	})
}

func (w *frameWriter) writeResponse(id uint64, resp *Response) error {
	return w.writeFrame(func(b []byte) []byte {
		return appendResponseFrame(b, id, resp)
	})
}

// pipeOp is one in-flight pipelined op. done has capacity 1 and every
// op is completed at most once (register/take hand out exclusive
// completion rights), so completion never blocks and a drained op can
// be pooled with its channel empty.
type pipeOp struct {
	done chan struct{}
	resp Response
	err  error
}

var pipeOpPool = sync.Pool{New: func() any { return &pipeOp{done: make(chan struct{}, 1)} }}

func getPipeOp() *pipeOp { return pipeOpPool.Get().(*pipeOp) }

func putPipeOp(op *pipeOp) {
	op.resp = Response{}
	op.err = nil
	pipeOpPool.Put(op)
}

// timerPool recycles op-deadline timers. Invariant: pooled timers are
// stopped with their channel drained, so Reset is always safe.
var timerPool sync.Pool

func acquireTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

// pipeConn is one connection carrying many concurrent ops.
// Callers register an op for a request ID, write the frame, and wait;
// the conn's reader goroutine demuxes response frames back to their ops
// in whatever order the server completes them.
type pipeConn struct {
	c    *Client
	conn net.Conn
	w    *frameWriter

	mu      sync.Mutex
	pending map[uint64]*pipeOp
	nextID  uint64
	closed  bool
	cause   error

	// depth is the number of registered-but-uncompleted ops, read
	// locklessly by connection pick and the load balancer.
	depth atomic.Int64
}

func newPipeConn(c *Client, conn net.Conn, br *bufio.Reader) *pipeConn {
	p := &pipeConn{
		c:       c,
		conn:    conn,
		w:       newFrameWriter(conn, &c.metrics),
		pending: make(map[uint64]*pipeOp, 32),
	}
	c.metrics.BinaryConns.Add(1)
	go p.readLoop(br)
	return p
}

func (p *pipeConn) isClosed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.closed
}

// register assigns the next request ID to op. On a closed conn it
// returns the close cause so the caller can classify and retry.
func (p *pipeConn) register(op *pipeOp) (uint64, error) {
	p.mu.Lock()
	if p.closed {
		cause := p.cause
		p.mu.Unlock()
		return 0, cause
	}
	p.nextID++
	id := p.nextID
	p.pending[id] = op
	p.mu.Unlock()
	p.c.metrics.observeDepth(p.depth.Add(1))
	return id, nil
}

// take removes and returns the op registered under id (nil if already
// completed or abandoned). The holder of the returned op owns its
// completion.
func (p *pipeConn) take(id uint64) *pipeOp {
	p.mu.Lock()
	op := p.pending[id]
	if op != nil {
		delete(p.pending, id)
	}
	p.mu.Unlock()
	return op
}

// closeWith tears the conn down once, failing every pending op with
// cause. Ops already taken (completed, or abandoned by their timer) are
// untouched.
func (p *pipeConn) closeWith(cause error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cause = cause
	pending := p.pending
	p.pending = nil
	p.mu.Unlock()
	p.w.close()
	p.conn.Close()
	for _, op := range pending {
		op.err = cause
		op.done <- struct{}{}
	}
}

// readLoop demuxes response frames to their ops until the conn dies.
func (p *pipeConn) readLoop(br *bufio.Reader) {
	var buf []byte
	for {
		f, err := readFrame(br, &buf)
		if err != nil {
			p.closeWith(err)
			return
		}
		p.c.metrics.FramesRecv.Add(1)
		p.c.metrics.BytesRecv.Add(int64(len(f.payload) + frameHeaderLen + 4))
		op := p.take(f.id)
		if op == nil {
			continue // abandoned at its deadline; drop the late response
		}
		if derr := decodeResponseFrame(f.code, f.payload, &op.resp); derr != nil {
			op.err = derr
			op.done <- struct{}{}
			p.closeWith(derr)
			return
		}
		op.done <- struct{}{}
	}
}
