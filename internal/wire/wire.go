// Package wire implements AFT's network protocol: a pipelined
// request/response RPC over TCP in length-prefixed binary frames
// (binary.go), plus the server that exposes an AFT node and the client
// that speaks to it.
//
// The protocol mirrors the Table 1 API exactly: StartTransaction, Get,
// Put, CommitTransaction, AbortTransaction. Sentinel errors cross the wire
// as codes so clients can retry on the conditions the paper calls out
// (ErrNoValidVersion aborts, lost transactions after node failure).
//
// There is one protocol and no negotiation. A connection opens with the
// client's 4-byte preface — "AFT" and the ProtocolVersion byte — and from
// then on every byte in both directions is a frame. The client's first
// frame is an OpPing hello; the reply names the node and its version. A
// server that reads a wrong magic closes the conn; one that reads a wrong
// version answers one ErrCodeUnsupportedVersion frame (request ID 0) and
// closes, which Dial reports as the terminal ErrUnsupportedVersion.
package wire

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/storage"
)

// ProtocolVersion is the one wire protocol version this build speaks,
// carried in the connection preface. Peers of any other version are
// refused, not adapted to.
const ProtocolVersion uint8 = 4

// preface is the first four bytes a client writes on a new connection.
var preface = [4]byte{'A', 'F', 'T', ProtocolVersion}

// Op identifies a request type.
type Op uint8

// Protocol operations.
const (
	OpStart Op = iota + 1
	OpGet
	OpPut
	OpCommit
	OpAbort
	OpResume
	OpPing
	OpMultiGet
)

// Request is one client->server message.
type Request struct {
	Op    Op
	TxID  string
	Key   string
	Value []byte
	// Keys carries an OpMultiGet's key batch (Key is unused for that op).
	Keys []string
	// TraceID/TraceSampled carry the client's trace context on OpStart.
	TraceID      string
	TraceSampled bool
	// Version is the sender's protocol version, set on the OpPing hello.
	Version uint8
	// DeadlineMillis is the client's remaining per-op time budget in
	// milliseconds at send time (0 = no deadline). It is a relative
	// duration rather than an absolute wall time so client and server
	// clocks never need to agree; the server derives a context deadline
	// from it and abandons the op once the budget is spent.
	DeadlineMillis int64
}

// ErrCode classifies errors across the wire.
type ErrCode uint8

// Wire error codes, mapped back to the core sentinel errors client-side.
const (
	ErrNone ErrCode = iota
	ErrCodeTxnNotFound
	ErrCodeTxnFinished
	ErrCodeKeyNotFound
	ErrCodeNoValidVersion
	ErrCodeUnavailable
	ErrCodeOther
	ErrCodeVersionVanished
	// ErrCodeUnknownOp reports a request op this server does not
	// implement, carrying the offending op code.
	ErrCodeUnknownOp
	// ErrCodeOverloaded reports admission-control shedding: the node's
	// wait queue for a concurrency slot is full. Retriable after backoff.
	ErrCodeOverloaded
	// ErrCodeDeadlineExceeded reports that the op's deadline expired
	// server-side before the work finished. Retriable with a fresh
	// deadline.
	ErrCodeDeadlineExceeded
	// ErrCodeUnsupportedVersion is the server's whole answer to a preface
	// carrying a protocol version other than its own; the conn closes
	// behind it.
	ErrCodeUnsupportedVersion
)

// Response is one server->client message.
type Response struct {
	TxID     string
	Value    []byte
	CommitTS int64
	Code     ErrCode
	Message  string
	// Values carries an OpMultiGet's results, aligned with Request.Keys.
	Values [][]byte
	// Version is the server's protocol version, set on the OpPing reply
	// and on an ErrCodeUnsupportedVersion refusal.
	Version uint8
}

// ErrDeadlineExceeded reports an op that ran out of time budget — the
// conn deadline fired client-side, or the server reported
// ErrCodeDeadlineExceeded. It wraps context.DeadlineExceeded so callers
// (and retry.Retriable) classify both transport-level and ctx-level
// timeouts with one errors.Is check; the §3.3.1 redo discipline treats
// it as retriable because a timed-out op has indeterminate effect and
// commits are idempotent under the same txid (§3.1).
var ErrDeadlineExceeded = fmt.Errorf("aft: op deadline exceeded: %w", context.DeadlineExceeded)

// ErrUnsupportedVersion reports a peer that speaks a different protocol
// version. It is terminal — NOT retriable: redialing the same build gets
// the same answer, so neither Dial nor the redo discipline tries again.
var ErrUnsupportedVersion = errors.New("wire: unsupported protocol version")

// ErrClosed reports an op issued on (or interrupted by) a closed
// Client. Unlike a conn failure it is NOT retriable: the caller tore
// the pool down on purpose.
var ErrClosed = errors.New("wire: client closed")

// UnknownOpError reports a request op the server does not implement. The
// offending op code survives the wire round trip so callers can tell WHICH
// op to stop sending instead of parsing a message string.
type UnknownOpError struct{ Op Op }

// Error implements the error interface.
func (e *UnknownOpError) Error() string {
	return fmt.Sprintf("aft: unknown wire op %d", e.Op)
}

// EncodeErr converts an error into a wire code + message.
func EncodeErr(err error) (ErrCode, string) {
	// Success returns before unknownOp is declared: errors.As makes it
	// escape, and nearly every reply would pay for that allocation.
	if err == nil {
		return ErrNone, ""
	}
	var unknownOp *UnknownOpError
	switch {
	case errors.As(err, &unknownOp):
		// The message carries just the op code so DecodeErr can rebuild
		// the typed error.
		return ErrCodeUnknownOp, strconv.Itoa(int(unknownOp.Op))
	case errors.Is(err, core.ErrTxnNotFound):
		return ErrCodeTxnNotFound, err.Error()
	case errors.Is(err, core.ErrTxnFinished):
		return ErrCodeTxnFinished, err.Error()
	case errors.Is(err, core.ErrKeyNotFound):
		return ErrCodeKeyNotFound, err.Error()
	case errors.Is(err, core.ErrNoValidVersion):
		return ErrCodeNoValidVersion, err.Error()
	case errors.Is(err, storage.ErrUnavailable):
		return ErrCodeUnavailable, err.Error()
	case errors.Is(err, core.ErrVersionVanished):
		return ErrCodeVersionVanished, err.Error()
	case errors.Is(err, core.ErrOverloaded):
		return ErrCodeOverloaded, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return ErrCodeDeadlineExceeded, err.Error()
	case errors.Is(err, ErrUnsupportedVersion):
		return ErrCodeUnsupportedVersion, err.Error()
	default:
		return ErrCodeOther, err.Error()
	}
}

// DecodeErr converts a wire code back into a sentinel (or opaque) error.
// The server's message is preserved — which key was missing, why storage
// was unavailable — by wrapping the sentinel, so errors.Is matching
// still works while logs and traces keep the cross-wire diagnostics.
func DecodeErr(code ErrCode, msg string) error {
	switch code {
	case ErrNone:
		return nil
	case ErrCodeTxnNotFound:
		return withMessage(core.ErrTxnNotFound, msg)
	case ErrCodeTxnFinished:
		return withMessage(core.ErrTxnFinished, msg)
	case ErrCodeKeyNotFound:
		return withMessage(core.ErrKeyNotFound, msg)
	case ErrCodeNoValidVersion:
		return withMessage(core.ErrNoValidVersion, msg)
	case ErrCodeUnavailable:
		return withMessage(storage.ErrUnavailable, msg)
	case ErrCodeVersionVanished:
		return withMessage(core.ErrVersionVanished, msg)
	case ErrCodeOverloaded:
		return withMessage(core.ErrOverloaded, msg)
	case ErrCodeDeadlineExceeded:
		return withMessage(ErrDeadlineExceeded, msg)
	case ErrCodeUnsupportedVersion:
		return withMessage(ErrUnsupportedVersion, msg)
	case ErrCodeUnknownOp:
		op, err := strconv.Atoi(msg)
		if err != nil {
			return &RemoteError{Message: "unknown op " + msg}
		}
		return &UnknownOpError{Op: Op(op)}
	default:
		return &RemoteError{Message: msg}
	}
}

// wireError carries a server-side message on top of a client-side
// sentinel: Error() is the server's text, Unwrap() the sentinel, so
// errors.Is(err, sentinel) matches exactly as it did when DecodeErr
// returned the bare sentinel.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// withMessage wraps sentinel so the server's message survives the wire.
// When the message adds nothing over the sentinel's own text the bare
// sentinel comes back, keeping err == sentinel comparisons working.
func withMessage(sentinel error, msg string) error {
	if msg == "" || msg == sentinel.Error() {
		return sentinel
	}
	return &wireError{msg: msg, sentinel: sentinel}
}

// RemoteError is a non-sentinel error reported by the server.
type RemoteError struct{ Message string }

// Error implements the error interface.
func (e *RemoteError) Error() string {
	if e.Message == "" {
		return "aft: remote error"
	}
	return "aft: remote error: " + e.Message
}

// idFromResponse rebuilds a commit ID from a response.
func idFromResponse(r *Response) idgen.ID {
	return idgen.ID{Timestamp: r.CommitTS, UUID: r.TxID}
}
