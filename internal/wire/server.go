package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aft/internal/core"
	"aft/internal/telemetry"
)

// Server exposes an AFT node over TCP. Once a connection's preface checks
// out it is a pipeline: the reader decodes frames straight into worker
// dispatch, many requests run concurrently per conn, and responses are
// written (and group-flushed) in completion order under their request IDs.
type Server struct {
	node *core.Node
	ln   net.Listener

	// baseCtx is the server-lifetime context. Per-conn handler contexts
	// derive from it and Close cancels it, so ctx-honoring node ops
	// (admission waits, flush waits, deadline checks) abandon promptly on
	// shutdown instead of relying solely on conn teardown.
	baseCtx context.Context
	cancel  context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	metrics Metrics

	// Logf receives connection-level errors; nil silences them.
	Logf func(format string, args ...any)
}

// NewServer wraps node; call Serve with a listener.
func NewServer(node *core.Node) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		node:    node,
		conns:   make(map[net.Conn]struct{}),
		baseCtx: ctx,
		cancel:  cancel,
	}
}

// Metrics returns the server's wire counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Listen starts serving on addr ("host:port"); it returns once the
// listener is bound, serving in the background. Use Close to stop.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return s.Serve(ln), nil
}

// Serve starts serving on an externally created listener — e.g. one
// wrapped by chaos.WrapListener for network fault injection — returning
// its address. The server owns ln from here on: Close and Shutdown close
// it.
func (s *Server) Serve(ln net.Listener) net.Addr {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr()
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// Handlers run under the server-lifetime context (not Background), so
	// Close/Shutdown's cancel reaches ctx-honoring node ops directly; the
	// per-conn cancel just releases the context when the conn dies.
	cctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	br := bufio.NewReaderSize(conn, 4<<10)
	var got [len(preface)]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			s.logf("wire: read preface: %v", err)
		}
		return
	}
	if !bytes.Equal(got[:3], preface[:3]) {
		s.logf("wire: %s is not an AFT client (first bytes %q); closing", conn.RemoteAddr(), got[:])
		return
	}
	if got[3] != ProtocolVersion {
		s.logf("wire: %s speaks protocol v%d, this server v%d; refusing", conn.RemoteAddr(), got[3], ProtocolVersion)
		code, msg := EncodeErr(ErrUnsupportedVersion)
		refusal := appendResponseFrame(nil, 0, &Response{Code: code, Message: msg, Version: ProtocolVersion})
		if _, err := conn.Write(refusal); err != nil {
			s.logf("wire: write refusal: %v", err)
		}
		return
	}
	s.metrics.BinaryConns.Add(1)
	s.serveFrames(cctx, conn, br)
}

// serveFrames is the conn's life after the preface: decode frames, hand
// each request to a handler goroutine, and let the shared frameWriter
// interleave and group-flush responses in completion order. Pings — the
// client's hello among them — are answered inline from a preserialized
// response naming the node and its version; the pure wire-path round trip
// allocates nothing.
//
// Handlers outlive one request: the reader hands a decoded request to an
// idle handler, and starts a new one only when every handler of the conn
// is busy — so a commit parked in a flush wait never delays the frames
// behind it, while a steady stream of requests spawns nothing. Handlers
// exit when the conn closes.
func (s *Server) serveFrames(ctx context.Context, conn net.Conn, br *bufio.Reader) {
	c := &connServer{s: s, ctx: ctx, fw: newFrameWriter(conn, &s.metrics), work: make(chan frameJob)}
	// Idle handlers first (closing work ends them), then the busy ones
	// (they produce into fw), then stop fw's writer.
	defer c.fw.close()
	defer c.handlers.Wait()
	defer close(c.work)
	var buf []byte
	var it internTable
	pingResp := Response{Value: []byte(s.node.ID()), Version: ProtocolVersion}
	for {
		f, err := readFrame(br, &buf)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("wire: read frame: %v", err)
			}
			return
		}
		s.metrics.FramesRecv.Add(1)
		s.metrics.BytesRecv.Add(int64(len(f.payload) + frameHeaderLen + 4))
		if Op(f.code) == OpPing {
			if err := c.fw.writeResponse(f.id, &pingResp); err != nil {
				s.logf("wire: write frame: %v", err)
				return
			}
			continue
		}
		req := getRequest(Op(f.code))
		if err := decodeRequestFrame(f.code, f.payload, req, &it); err != nil {
			// Corrupt framing cannot be resynced; kill the conn.
			putRequest(req)
			s.logf("wire: decode frame: %v", err)
			return
		}
		s.metrics.observeDepth(c.depth.Add(1))
		j := frameJob{id: f.id, req: req}
		select {
		case c.work <- j: // an idle handler took it
		default:
			c.handlers.Add(1)
			go c.handle(j)
		}
	}
}

// connServer is the request-serving side of one conn.
type connServer struct {
	s        *Server
	ctx      context.Context
	fw       *frameWriter
	work     chan frameJob // unbuffered: a send succeeds only to an idle handler
	handlers sync.WaitGroup
	depth    atomic.Int64
}

// frameJob is one decoded request and the frame fields its reply echoes.
type frameJob struct {
	id  uint64
	req *Request
}

// handle serves j, then every request an idle handler is handed, until
// the conn closes.
func (c *connServer) handle(j frameJob) {
	defer c.handlers.Done()
	h := new(handler)
	for ok := true; ok; j, ok = <-c.work {
		c.s.dispatch(c.ctx, h, j.req)
		if err := c.fw.writeResponse(j.id, &h.resp); err != nil {
			c.s.logf("wire: write frame: %v", err)
		}
		putRequest(j.req)
		h.reset()
		c.depth.Add(-1)
	}
}

// handler is one handler goroutine's state, reused from request to
// request: the response the node reads into, and a deadline context.
type handler struct {
	resp Response
	dctx *deadlineCtx
}

// retainedValueMax bounds the value buffers a handler keeps between
// requests, so one large read does not stay pinned by an idle handler.
const retainedValueMax = 64 << 10

// reset readies h for its next request, keeping the value buffers the node
// reads into (the frameWriter has already copied the reply out).
func (h *handler) reset() {
	value, values := h.resp.Value[:0], h.resp.Values[:0]
	if cap(value) > retainedValueMax {
		value = nil
	}
	for _, v := range h.resp.Values {
		if cap(v) > retainedValueMax {
			values = nil
			break
		}
	}
	h.resp = Response{Value: value, Values: values}
}

// deadline returns a context bounding one request to d under parent. The
// handler's previous context is reused unless a wait armed it: an armed
// context's timer and parent registration may still fire, so it is dropped
// for a fresh one. Reuse is safe because nothing outlives the request it
// was given: the goroutines a commit's write phase starts return before the
// commit does, and code that derives a cancelable child or waits on Done
// arms the context first.
func (h *handler) deadline(parent context.Context, d time.Duration) *deadlineCtx {
	if h.dctx == nil || h.dctx.armed() {
		h.dctx = new(deadlineCtx)
	}
	h.dctx.reset(parent, d)
	return h.dctx
}

func opName(op Op) string {
	switch op {
	case OpStart:
		return "start"
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpResume:
		return "resume"
	case OpMultiGet:
		return "multiget"
	default:
		return "unknown"
	}
}

// dispatch runs one request against the node into h.resp, under a
// wire.dispatch span for traced transactions so server-side queueing shows
// up in traces.
func (s *Server) dispatch(ctx context.Context, h *handler, req *Request) {
	if tr := s.node.TraceOf(req.TxID); tr != nil {
		sp := tr.StartSpan("wire.dispatch")
		sp.Annotate("op", opName(req.Op))
		defer sp.End()
	}
	// The client ships its remaining per-op budget; honoring it here
	// means work the client has already given up on is abandoned at the
	// node's next ctx check instead of burning a concurrency slot.
	if req.DeadlineMillis > 0 {
		dctx := h.deadline(ctx, time.Duration(req.DeadlineMillis)*time.Millisecond)
		defer dctx.cancel(context.Canceled)
		ctx = dctx
	}
	resp := &h.resp
	var err error
	switch req.Op {
	case OpStart:
		// Only Start's reply carries a txid: it is the one the client
		// does not already know.
		if req.TraceID != "" || req.TraceSampled {
			ctx = telemetry.WithTraceContext(ctx, telemetry.TraceContext{
				ID:      req.TraceID,
				Sampled: req.TraceSampled,
			})
		}
		resp.TxID, err = s.node.StartTransaction(ctx)
	case OpGet:
		// The node appends the value straight into the reused response.
		resp.Value, err = s.node.AppendGet(ctx, req.TxID, req.Key, resp.Value[:0])
	case OpMultiGet:
		resp.Values, err = s.node.AppendMultiGet(ctx, req.TxID, req.Keys, resp.Values[:0])
	case OpPut:
		err = s.node.Put(ctx, req.TxID, req.Key, req.Value)
	case OpCommit:
		cid, cerr := s.node.CommitTransaction(ctx, req.TxID)
		resp.CommitTS, err = cid.Timestamp, cerr
	case OpAbort:
		err = s.node.AbortTransaction(ctx, req.TxID)
	case OpResume:
		err = s.node.ResumeTransaction(ctx, req.TxID)
	default:
		err = &UnknownOpError{Op: req.Op}
	}
	resp.Code, resp.Message = EncodeErr(err)
}

// Shutdown drains the server gracefully: it closes the listener so no
// new connections arrive, waits for the node's in-flight transactions to
// finish (polling, bounded by ctx), then closes the remaining
// connections. On ctx expiry it force-closes and returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	ln := s.ln
	s.ln = nil
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for s.node.ActiveTransactions() > 0 {
		select {
		case <-ctx.Done():
			s.Close()
			return ctx.Err()
		case <-tick.C:
		}
	}
	return s.Close()
}

// Close stops the listener and all live connections, cancels the
// server-lifetime context so parked handlers abandon, then waits for
// handler goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Cancel before tearing down conns: a handler parked in an
	// admission or flush wait unblocks on ctx even though its conn write
	// afterwards fails.
	s.cancel()
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
