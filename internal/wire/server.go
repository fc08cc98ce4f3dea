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
		refusal := appendResponseFrame(nil, 0, &Response{Code: code, Message: msg, Version: ProtocolVersion}, false)
		if _, err := conn.Write(refusal); err != nil {
			s.logf("wire: write refusal: %v", err)
		}
		return
	}
	s.metrics.BinaryConns.Add(1)
	s.serveFrames(cctx, conn, br)
}

// serveFrames is the conn's life after the preface: decode frames,
// dispatch each request to its own handler goroutine, and let the
// shared frameWriter interleave and group-flush responses in completion
// order. Pings — the client's hello among them — are answered inline
// from a preserialized response naming the node and its version; the
// pure wire-path round trip allocates nothing.
func (s *Server) serveFrames(ctx context.Context, conn net.Conn, br *bufio.Reader) {
	fw := newFrameWriter(conn, &s.metrics)
	var wg sync.WaitGroup
	// Handlers first (they produce into fw), then stop fw's writer.
	defer fw.close()
	defer wg.Wait()
	var buf []byte
	var it internTable
	var depth atomic.Int64
	pingResp := Response{Value: []byte(s.node.ID()), Version: ProtocolVersion}
	for {
		f, err := readFrame(br, &buf)
		if err != nil {
			if err == errFrameCorrupt {
				s.metrics.CRCErrors.Add(1)
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("wire: read frame: %v", err)
			}
			return
		}
		s.metrics.FramesRecv.Add(1)
		s.metrics.BytesRecv.Add(int64(len(f.payload) + frameHeaderLen + 4))
		if Op(f.code) == OpPing {
			if err := fw.writeResponse(f.id, &pingResp, f.crc); err != nil {
				s.logf("wire: write frame: %v", err)
				return
			}
			continue
		}
		req := getRequest()
		if err := decodeRequestFrame(f.code, f.payload, req, &it); err != nil {
			// Corrupt framing cannot be resynced; kill the conn.
			putRequest(req)
			s.logf("wire: decode frame: %v", err)
			return
		}
		wg.Add(1)
		s.metrics.observeDepth(depth.Add(1))
		// A reply carries a CRC trailer exactly when its request did.
		go func(id uint64, crc bool, req *Request) {
			defer wg.Done()
			defer depth.Add(-1)
			resp := getResponse()
			s.dispatch(ctx, req, resp)
			if err := fw.writeResponse(id, resp, crc); err != nil {
				s.logf("wire: write frame: %v", err)
			}
			putRequest(req)
			putResponse(resp)
		}(f.id, f.crc, req)
	}
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

// dispatch runs one request against the node, under a wire.dispatch span
// for traced transactions so server-side queueing shows up in traces.
func (s *Server) dispatch(ctx context.Context, req *Request, resp *Response) {
	if tr := s.node.TraceOf(req.TxID); tr != nil {
		sp := tr.StartSpan("wire.dispatch")
		sp.Annotate("op", opName(req.Op))
		defer sp.End()
	}
	// The client ships its remaining per-op budget; honoring it here
	// means work the client has already given up on is abandoned at the
	// node's next ctx check instead of burning a concurrency slot.
	if req.DeadlineMillis > 0 {
		dctx := withDeadline(ctx, time.Duration(req.DeadlineMillis)*time.Millisecond)
		defer dctx.cancel(context.Canceled)
		ctx = dctx
	}
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
		resp.Value, err = s.node.Get(ctx, req.TxID, req.Key)
	case OpMultiGet:
		resp.Values, err = s.node.MultiGet(ctx, req.TxID, req.Keys)
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
