package wire

// binary.go is the frame codec. After the client's 4-byte preface
// (wire.go) every byte in both directions is one of these frames:
//
//	| u32 length | u8 op/code | u8 flags | u64 request ID | payload |
//
// length is big-endian and counts every byte after itself (header and
// payload). The second byte is the request Op client->server and the
// response ErrCode server->client. The flags byte is zero: a frame with
// any flag set is malformed (TCP already checksums the bytes). The request
// ID is assigned by the client and echoed verbatim by the server, which
// is what lets a single connection pipeline many in-flight ops and
// complete them out of order.
//
// Payload fields are varint-length-prefixed in fixed order. Requests:
// txid, key, value, keys (uvarint count, then each key), trace ID,
// trace-sampled byte, deadline millis (uvarint), sender version byte.
// Responses: txid, value, commit timestamp (uvarint), message, values
// (uvarint count, then each value), server version byte. Zero-length
// byte fields decode as nil: callers cannot tell empty from absent.
//
// Decoding is allocation-disciplined: frames are read into a per-conn
// scratch buffer sized by its high-water mark, request txids and keys are
// interned per connection (a transaction's txid repeats for every op of
// its lifetime, a hot key for many transactions), and Request structs are
// pooled. Only bytes whose ownership leaves the wire layer (a Get's value
// handed to the caller) are freshly allocated.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"sync"
	"time"
)

const (
	// frameHeaderLen is the fixed header after the length field.
	frameHeaderLen = 10
	// maxFrameLen bounds a frame so a corrupt or hostile length prefix
	// cannot make the reader allocate unbounded memory.
	maxFrameLen = 64 << 20
	// maxDeadlineMillis is the largest DeadlineMillis whose conversion to
	// a time.Duration does not overflow; decode clamps hostile values.
	maxDeadlineMillis = math.MaxInt64 / uint64(time.Millisecond)
)

var (
	errFrameTooLarge  = errors.New("wire: frame exceeds 64MiB limit")
	errFrameTruncated = errors.New("wire: truncated frame")
	errFrameFlags     = errors.New("wire: frame flags set")
)

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendByteSlice(dst, v []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// appendRequestFrame encodes req as one frame onto dst (reusing its
// capacity) under the caller-assigned request ID.
func appendRequestFrame(dst []byte, id uint64, req *Request) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backfilled below
	dst = append(dst, byte(req.Op), 0)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = appendString(dst, req.TxID)
	dst = appendString(dst, req.Key)
	dst = appendByteSlice(dst, req.Value)
	dst = binary.AppendUvarint(dst, uint64(len(req.Keys)))
	for _, k := range req.Keys {
		dst = appendString(dst, k)
	}
	dst = appendString(dst, req.TraceID)
	var sampled byte
	if req.TraceSampled {
		sampled = 1
	}
	dst = append(dst, sampled)
	dm := req.DeadlineMillis
	if dm < 0 {
		dm = 0
	}
	dst = binary.AppendUvarint(dst, uint64(dm))
	dst = append(dst, req.Version)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// appendResponseFrame encodes resp as one frame onto dst under the
// request ID it answers.
func appendResponseFrame(dst []byte, id uint64, resp *Response) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, byte(resp.Code), 0)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = appendString(dst, resp.TxID)
	dst = appendByteSlice(dst, resp.Value)
	dst = binary.AppendUvarint(dst, uint64(resp.CommitTS))
	dst = appendString(dst, resp.Message)
	dst = binary.AppendUvarint(dst, uint64(len(resp.Values)))
	for _, v := range resp.Values {
		dst = appendByteSlice(dst, v)
	}
	dst = append(dst, resp.Version)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// rawFrame is one frame off the socket: its header fields and the
// still-encoded payload.
type rawFrame struct {
	code    byte // request Op or response ErrCode
	id      uint64
	payload []byte
}

// readFrame reads one frame from br into *buf (grown to the conn's
// high-water mark and reused across calls). The payload aliases *buf: it is valid only until the next readFrame call. A clean
// EOF at a frame boundary comes back as io.EOF; anything mid-frame (the
// chaos layer's mid-frame resets land here) is io.ErrUnexpectedEOF or a
// transport error. The length is peeked out of br's own buffer: a local
// array handed to io.ReadFull would escape through its interface argument,
// one allocation per frame.
func readFrame(br *bufio.Reader, buf *[]byte) (rawFrame, error) {
	hdr, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // EOF inside the length is mid-frame
		}
		return rawFrame{}, err
	}
	n := binary.BigEndian.Uint32(hdr)
	br.Discard(4)
	if n < frameHeaderLen {
		return rawFrame{}, errFrameTruncated
	}
	if n > maxFrameLen {
		return rawFrame{}, errFrameTooLarge
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(br, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // EOF between length and body is mid-frame
		}
		return rawFrame{}, err
	}
	if b[1] != 0 {
		return rawFrame{}, errFrameFlags
	}
	return rawFrame{
		code:    b[0],
		id:      binary.BigEndian.Uint64(b[2:frameHeaderLen]),
		payload: b[frameHeaderLen:],
	}, nil
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errFrameTruncated
	}
	return v, b[n:], nil
}

// readString copies the next length-prefixed field out of the scratch
// buffer as a string.
func readString(b []byte) (string, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(b)) < n {
		return "", nil, errFrameTruncated
	}
	return string(b[:n]), b[n:], nil
}

// readBytesReuse copies the next field into dst's capacity (a pooled
// struct's retained slice), returning nil for a zero-length field.
func readBytesReuse(b, dst []byte) ([]byte, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(b)) < n {
		return nil, nil, errFrameTruncated
	}
	if n == 0 {
		return nil, b, nil
	}
	return append(dst[:0], b[:n]...), b[n:], nil
}

// readBytesFresh copies the next field into a fresh allocation — for
// bytes whose ownership leaves the wire layer.
func readBytesFresh(b []byte) ([]byte, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(b)) < n {
		return nil, nil, errFrameTruncated
	}
	if n == 0 {
		return nil, b, nil
	}
	return append([]byte(nil), b[:n]...), b[n:], nil
}

// internTable deduplicates the hot request strings on a connection: a
// transaction's txid arrives once per op for the whole txn lifetime, and a
// workload's hot keys arrive over and over, so interning turns per-op
// string allocations into map hits. It is owned by a single reader
// goroutine (no locking) and holds two generations of at most
// internTableMax strings each: when the current one fills, it becomes the
// old one and the previous old one is dropped, and a hit in the old
// generation moves the string forward. A string survives as long as it
// recurs within a generation's worth of distinct strings, so a keyspace
// larger than one generation still hits on its hot keys, while a
// long-lived connection cannot accumulate txids forever.
type internTable struct {
	cur, old map[string]string
}

const internTableMax = 2048

func (t *internTable) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	// The string(b) conversion in a map index expression does not
	// allocate, so hits are allocation-free.
	if s, ok := t.cur[string(b)]; ok {
		return s
	}
	s, ok := t.old[string(b)]
	if !ok {
		s = string(b)
	}
	if len(t.cur) >= internTableMax {
		t.cur, t.old = t.old, t.cur
		clear(t.cur)
	}
	if t.cur == nil {
		t.cur = make(map[string]string, 64)
	}
	t.cur[s] = s
	return s
}

// readInterned is readString through the per-conn intern table.
func readInterned(b []byte, it *internTable) (string, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(b)) < n {
		return "", nil, errFrameTruncated
	}
	return it.get(b[:n]), b[n:], nil
}

// decodeRequestFrame fills the pooled req from a frame payload, copying
// every field out of the scratch buffer. The txid and the keys are
// interned in it instead of allocated per request.
func decodeRequestFrame(op byte, b []byte, req *Request, it *internTable) error {
	req.Op = Op(op)
	var err error
	if req.TxID, b, err = readInterned(b, it); err != nil {
		return err
	}
	if req.Key, b, err = readInterned(b, it); err != nil {
		return err
	}
	if req.Value, b, err = readBytesReuse(b, req.Value); err != nil {
		return err
	}
	var nk uint64
	if nk, b, err = readUvarint(b); err != nil {
		return err
	}
	if nk > uint64(len(b)) { // each key carries at least its length byte
		return errFrameTruncated
	}
	keys := req.Keys[:0]
	for i := uint64(0); i < nk; i++ {
		var k string
		if k, b, err = readInterned(b, it); err != nil {
			return err
		}
		keys = append(keys, k)
	}
	if nk == 0 {
		keys = nil
	}
	req.Keys = keys
	if req.TraceID, b, err = readString(b); err != nil {
		return err
	}
	if len(b) < 1 {
		return errFrameTruncated
	}
	req.TraceSampled = b[0] != 0
	b = b[1:]
	var dm uint64
	if dm, b, err = readUvarint(b); err != nil {
		return err
	}
	req.DeadlineMillis = int64(min(dm, maxDeadlineMillis))
	if len(b) < 1 {
		return errFrameTruncated
	}
	req.Version = b[0]
	return nil
}

// decodeResponseFrame fills resp from a frame payload. Value and Values
// are freshly allocated — their ownership passes to the caller, while
// resp itself may be a pooled struct reused for the next op.
func decodeResponseFrame(code byte, b []byte, resp *Response) error {
	resp.Code = ErrCode(code)
	var err error
	if resp.TxID, b, err = readString(b); err != nil {
		return err
	}
	if resp.Value, b, err = readBytesFresh(b); err != nil {
		return err
	}
	var ts uint64
	if ts, b, err = readUvarint(b); err != nil {
		return err
	}
	resp.CommitTS = int64(ts)
	if resp.Message, b, err = readString(b); err != nil {
		return err
	}
	var nv uint64
	if nv, b, err = readUvarint(b); err != nil {
		return err
	}
	if nv > uint64(len(b)) {
		return errFrameTruncated
	}
	if nv == 0 {
		resp.Values = nil
	} else {
		vals := make([][]byte, nv)
		for i := range vals {
			if vals[i], b, err = readBytesFresh(b); err != nil {
				return err
			}
		}
		resp.Values = vals
	}
	if len(b) < 1 {
		return errFrameTruncated
	}
	resp.Version = b[0]
	return nil
}

// Requests are pooled for the server's decoder, one pool for Puts and one
// for every other op. Reset retains the Value capacity the next decode can
// reuse — so a Put's value buffer goes to the next Put, not to a Get that
// has no value and would leave the next Put to allocate — but not Keys,
// whose backing array the node may retain. (Responses need no pool: each
// server handler reuses its own, see handler.reset.)
var requestPool, putRequestPool = newRequestPool(), newRequestPool()

func newRequestPool() *sync.Pool {
	return &sync.Pool{New: func() any { return new(Request) }}
}

func requestPoolFor(op Op) *sync.Pool {
	if op == OpPut {
		return putRequestPool
	}
	return requestPool
}

// getRequest returns a reset Request for decoding a frame of op.
func getRequest(op Op) *Request { return requestPoolFor(op).Get().(*Request) }

func putRequest(req *Request) {
	pool := requestPoolFor(req.Op)
	req.Op, req.TxID, req.Key = 0, "", ""
	req.Value = req.Value[:0]
	req.Keys = nil
	req.TraceID, req.TraceSampled = "", false
	req.Version, req.DeadlineMillis = 0, 0
	pool.Put(req)
}
