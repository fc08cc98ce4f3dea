package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"aft/internal/idgen"
	"aft/internal/storage"
	"aft/internal/telemetry"
)

// DialConfig tunes a Client beyond the defaults Dial applies.
type DialConfig struct {
	// MaxConns bounds the connection pool (0 defaults to 16). Conns are
	// pipelined, so a handful carry many concurrent ops and new conns are
	// dialed only while every existing one is busy.
	MaxConns int
	// OpTimeout is the per-op deadline applied when the caller's ctx
	// carries none (and the floor when it does: the effective deadline is
	// the earlier of the two). 0 defaults to 30s; negative disables the
	// floor so only the ctx deadline bounds the op.
	OpTimeout time.Duration
	// DialTimeout bounds each TCP connect (0 defaults to 10s; negative
	// disables).
	DialTimeout time.Duration
}

// Client is a connection pool speaking the AFT wire protocol to one node.
// It implements lb.Backend, so remote nodes compose with the load balancer
// exactly like in-process ones. A few pipelined connections carry many
// concurrent ops each, demuxed by request ID.
//
// Every op is deadline-bounded: the earlier of the caller's ctx deadline
// and the configured OpTimeout bounds the op, so a partitioned or hung
// server yields a retriable ErrDeadlineExceeded instead of an indefinite
// hang, and the remaining budget rides the wire so the server abandons
// work the client gave up on.
type Client struct {
	addr        string
	id          string
	opTimeout   time.Duration
	dialTimeout time.Duration

	metrics Metrics

	mu      sync.Mutex
	pconns  []*pipeConn
	dialing int
	max     int
	dead    bool
}

// Dial connects to an AFT server at addr with default timeouts. maxConns
// bounds the connection pool (0 defaults to 16). The initial connection
// doubles as a liveness check and learns the node's ID.
func Dial(addr string, maxConns int) (*Client, error) {
	return DialWith(addr, DialConfig{MaxConns: maxConns})
}

// DialWith is Dial with explicit pool and timeout configuration.
func DialWith(addr string, cfg DialConfig) (*Client, error) {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 16
	}
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = 30 * time.Second
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	c := &Client{
		addr:        addr,
		max:         cfg.MaxConns,
		opTimeout:   cfg.OpTimeout,
		dialTimeout: cfg.DialTimeout,
	}
	pc, id, err := c.dialPipe()
	if err != nil {
		return nil, err
	}
	c.id = id
	c.pconns = append(c.pconns, pc)
	return c, nil
}

// Metrics returns the client's wire counters.
func (c *Client) Metrics() *Metrics { return &c.metrics }

// dialPipe opens one pipelined conn: TCP connect, then the handshake —
// the preface and an OpPing hello in one write, and the server's reply,
// which names the node. Transport failures (including a mid-pool redial
// after the server dropped our conns) are transient conditions the
// §3.3.1 redo discipline handles, so they classify as retriable; a
// server of another protocol version is the terminal
// ErrUnsupportedVersion.
func (c *Client) dialPipe() (*pipeConn, string, error) {
	d := net.Dialer{}
	if c.dialTimeout > 0 {
		d.Timeout = c.dialTimeout
	}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return nil, "", fmt.Errorf("wire: dialing %s: %v: %w", c.addr, err, storage.ErrUnavailable)
	}
	br := bufio.NewReaderSize(conn, 4<<10)
	nodeID, err := c.handshake(conn, br)
	if err != nil {
		conn.Close()
		if errors.Is(err, ErrUnsupportedVersion) {
			return nil, "", err
		}
		return nil, "", c.opErr(err)
	}
	return newPipeConn(c, conn, br), nodeID, nil
}

// handshake runs the one round trip that opens a conn, bounded by the op
// deadline. It precedes the conn's reader and writer goroutines, so it
// talks to the socket directly (and is not in the frame counters).
func (c *Client) handshake(conn net.Conn, br *bufio.Reader) (nodeID string, err error) {
	dl, _ := c.opDeadline(context.Background())
	if err := conn.SetDeadline(dl); err != nil {
		return "", err
	}
	hello := appendRequestFrame(append([]byte(nil), preface[:]...), 0,
		&Request{Op: OpPing, Version: ProtocolVersion})
	if _, err := conn.Write(hello); err != nil {
		return "", err
	}
	var buf []byte
	f, err := readFrame(br, &buf)
	if err != nil {
		return "", err
	}
	var resp Response
	if err := decodeResponseFrame(f.code, f.payload, &resp); err != nil {
		return "", err
	}
	if err := DecodeErr(resp.Code, resp.Message); err != nil {
		return "", fmt.Errorf("wire: %s (protocol v%d) refused the handshake of this v%d client: %w",
			c.addr, resp.Version, ProtocolVersion, err)
	}
	// The pipelined reader blocks indefinitely between responses; per-op
	// timers bound the ops, so the handshake deadline must not linger.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return "", err
	}
	return string(resp.Value), nil
}

// pickPipe returns the pipelined conn with the fewest in-flight ops,
// dialing a new conn (up to MaxConns) only while every existing one is
// busy — so sequential callers stay on one conn and concurrent load
// spreads without herding the dialer.
func (c *Client) pickPipe() (*pipeConn, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: %w", ErrClosed)
	}
	alive := c.pconns[:0]
	for _, pc := range c.pconns {
		if !pc.isClosed() {
			alive = append(alive, pc)
		}
	}
	for i := len(alive); i < len(c.pconns); i++ {
		c.pconns[i] = nil
	}
	c.pconns = alive
	var best *pipeConn
	var bestDepth int64
	for _, pc := range c.pconns {
		if d := pc.depth.Load(); best == nil || d < bestDepth {
			best, bestDepth = pc, d
		}
	}
	if best != nil && (bestDepth == 0 || len(c.pconns)+c.dialing >= c.max) {
		c.mu.Unlock()
		return best, nil
	}
	c.dialing++
	c.mu.Unlock()
	pc, _, err := c.dialPipe()
	c.mu.Lock()
	c.dialing--
	if err != nil {
		// The redial failed but the pool may still hold a live conn —
		// prefer queueing on it over failing the op.
		for _, alt := range c.pconns {
			if !alt.isClosed() {
				c.mu.Unlock()
				return alt, nil
			}
		}
		c.mu.Unlock()
		return nil, err
	}
	if c.dead {
		c.mu.Unlock()
		pc.closeWith(fmt.Errorf("wire: op interrupted: %w", ErrClosed))
		return nil, fmt.Errorf("wire: %w", ErrClosed)
	}
	c.pconns = append(c.pconns, pc)
	c.mu.Unlock()
	return pc, nil
}

// opDeadline resolves the effective deadline for one op: the earlier of
// the ctx deadline and now+OpTimeout. A zero return means unbounded.
func (c *Client) opDeadline(ctx context.Context) (time.Time, bool) {
	dl, ok := ctx.Deadline()
	if c.opTimeout > 0 {
		if od := time.Now().Add(c.opTimeout); !ok || od.Before(dl) {
			dl, ok = od, true
		}
	}
	return dl, ok
}

// opErr classifies a transport-level failure. Timeouts classify FIRST:
// an op that legitimately hit its conn deadline reports the retriable
// ErrDeadlineExceeded even when another goroutine is concurrently
// closing the client — the dead-client branch is reserved for
// conn-closed errors, where the op failed BECAUSE Close pulled the conn
// out from under it (terminal ErrClosed). Everything else — resets,
// EOFs from a dying server, failed redials — maps to the retriable
// storage.ErrUnavailable (indeterminate ops are safe to redo: commits
// are idempotent under the same txid, §3.1).
func (c *Client) opErr(err error) error {
	if isTimeout(err) {
		return fmt.Errorf("wire: %s: %v: %w", c.addr, err, ErrDeadlineExceeded)
	}
	if errors.Is(err, ErrClosed) {
		return fmt.Errorf("wire: op interrupted: %w", ErrClosed)
	}
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return fmt.Errorf("wire: op interrupted: %w", ErrClosed)
	}
	return fmt.Errorf("wire: conn to %s: %v: %w", c.addr, err, storage.ErrUnavailable)
}

// isTimeout reports whether err is a conn-deadline expiry.
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// call runs one pipelined op, filling resp: register a request ID, write
// the frame (group-flushed with concurrent ops), and wait for the reader
// to demux the response — or for the op's own timer, whichever first.
func (c *Client) call(ctx context.Context, req *Request, resp *Response) error {
	dl, ok := c.opDeadline(ctx)
	if ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return fmt.Errorf("wire: %s: %w", c.addr, ErrDeadlineExceeded)
		}
		ms := rem.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.DeadlineMillis = ms
	}
	pc, err := c.pickPipe()
	if err != nil {
		return err
	}
	op := getPipeOp()
	id, err := pc.register(op)
	if err != nil {
		putPipeOp(op)
		return c.opErr(err)
	}
	defer pc.depth.Add(-1)
	if werr := pc.w.writeRequest(id, req); werr != nil {
		// The writer is already poisoned (an earlier batch failed) or
		// closed; close the conn so the reader and all waiters fail now
		// rather than at their deadlines. closeWith (or the reader's own
		// teardown) completes our op too — wait for whichever wins.
		pc.closeWith(werr)
		<-op.done
		err := op.err
		putPipeOp(op)
		return c.opErr(err)
	}
	if ok {
		t := acquireTimer(time.Until(dl))
		select {
		case <-op.done:
		case <-t.C:
			if pc.take(id) != nil {
				// The timer won: abandon the op and kill the conn.
				// Siblings fail retriably, and the next op redials —
				// which is what lets chaos partitions heal on schedule.
				op.err = os.ErrDeadlineExceeded
				c.metrics.Timeouts.Add(1)
				pc.closeWith(fmt.Errorf("wire: conn %s closed: pipelined op hit its deadline", c.addr))
			} else {
				// The reader took the op just before the timer fired;
				// its completion is imminent.
				<-op.done
			}
		}
		releaseTimer(t)
	} else {
		<-op.done
	}
	err = op.err
	if err != nil {
		putPipeOp(op)
		return c.opErr(err)
	}
	*resp = op.resp
	putPipeOp(op)
	return nil
}

// ID returns the remote node's identifier (lb.Backend).
func (c *Client) ID() string { return c.id }

// Ping round-trips a no-op request, verifying the conn path end to end.
func (c *Client) Ping(ctx context.Context) error {
	var resp Response
	return c.call(ctx, &Request{Op: OpPing}, &resp)
}

// StartTransaction implements lb.Backend over the wire. A trace context
// in ctx (telemetry.WithTraceContext, or aft.Traced at the API surface)
// rides along.
func (c *Client) StartTransaction(ctx context.Context) (string, error) {
	tc := telemetry.TraceContextFrom(ctx)
	req := &Request{Op: OpStart, TraceID: tc.ID, TraceSampled: tc.Sampled}
	var resp Response
	if err := c.call(ctx, req, &resp); err != nil {
		return "", err
	}
	return resp.TxID, DecodeErr(resp.Code, resp.Message)
}

// Get implements lb.Backend over the wire.
func (c *Client) Get(ctx context.Context, txid, key string) ([]byte, error) {
	var resp Response
	if err := c.call(ctx, &Request{Op: OpGet, TxID: txid, Key: key}, &resp); err != nil {
		return nil, err
	}
	if err := DecodeErr(resp.Code, resp.Message); err != nil {
		return nil, err
	}
	return resp.Value, nil
}

// MultiGet implements lb.Backend over the wire: one round trip reads the
// whole key batch, and the server's batched read pipeline collapses the
// storage fan-out behind it.
func (c *Client) MultiGet(ctx context.Context, txid string, keys []string) ([][]byte, error) {
	var resp Response
	if err := c.call(ctx, &Request{Op: OpMultiGet, TxID: txid, Keys: keys}, &resp); err != nil {
		return nil, err
	}
	if err := DecodeErr(resp.Code, resp.Message); err != nil {
		return nil, err
	}
	return resp.Values, nil
}

// Put implements lb.Backend over the wire.
func (c *Client) Put(ctx context.Context, txid, key string, value []byte) error {
	var resp Response
	if err := c.call(ctx, &Request{Op: OpPut, TxID: txid, Key: key, Value: value}, &resp); err != nil {
		return err
	}
	return DecodeErr(resp.Code, resp.Message)
}

// CommitTransaction implements lb.Backend over the wire.
func (c *Client) CommitTransaction(ctx context.Context, txid string) (idgen.ID, error) {
	var resp Response
	if err := c.call(ctx, &Request{Op: OpCommit, TxID: txid}, &resp); err != nil {
		return idgen.Null, err
	}
	if err := DecodeErr(resp.Code, resp.Message); err != nil {
		return idgen.Null, err
	}
	id := idFromResponse(&resp)
	if id.UUID == "" {
		// The server does not echo the txid on non-Start replies; the
		// commit ID's UUID half is the txid we already hold.
		id.UUID = txid
	}
	return id, nil
}

// AbortTransaction implements lb.Backend over the wire.
func (c *Client) AbortTransaction(ctx context.Context, txid string) error {
	var resp Response
	if err := c.call(ctx, &Request{Op: OpAbort, TxID: txid}, &resp); err != nil {
		return err
	}
	return DecodeErr(resp.Code, resp.Message)
}

// ResumeTransaction re-attaches to a transaction after a function retry.
func (c *Client) ResumeTransaction(ctx context.Context, txid string) error {
	var resp Response
	if err := c.call(ctx, &Request{Op: OpResume, TxID: txid}, &resp); err != nil {
		return err
	}
	return DecodeErr(resp.Code, resp.Message)
}

// Close tears down the pool. In-flight ops blocked on a dead or
// partitioned server are unblocked: their conns close under them and the
// ops fail with ErrClosed.
func (c *Client) Close() {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	pconns := c.pconns
	c.pconns = nil
	c.mu.Unlock()
	cause := fmt.Errorf("wire: op interrupted: %w", ErrClosed)
	for _, pc := range pconns {
		pc.closeWith(cause)
	}
}
