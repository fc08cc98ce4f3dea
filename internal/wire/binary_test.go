package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"unsafe"
)

func roundTripRequest(t *testing.T, req *Request) *Request {
	t.Helper()
	frame := appendRequestFrame(nil, 42, req)
	br := bufio.NewReader(bytes.NewReader(frame))
	var buf []byte
	f, err := readFrame(br, &buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if f.id != 42 {
		t.Fatalf("request ID = %d, want 42", f.id)
	}
	var got Request
	var it internTable
	if err := decodeRequestFrame(f.code, f.payload, &got, &it); err != nil {
		t.Fatalf("decodeRequestFrame: %v", err)
	}
	return &got
}

func roundTripResponse(t *testing.T, resp *Response) *Response {
	t.Helper()
	frame := appendResponseFrame(nil, 7, resp)
	br := bufio.NewReader(bytes.NewReader(frame))
	var buf []byte
	f, err := readFrame(br, &buf)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if f.id != 7 {
		t.Fatalf("request ID = %d, want 7", f.id)
	}
	var got Response
	if err := decodeResponseFrame(f.code, f.payload, &got); err != nil {
		t.Fatalf("decodeResponseFrame: %v", err)
	}
	return &got
}

// TestRequestFrameRoundTrip exercises every request field.
func TestRequestFrameRoundTrip(t *testing.T) {
	req := &Request{
		Op:             OpPut,
		TxID:           "txn-abc-123",
		Key:            "users/42",
		Value:          []byte{0, 1, 2, 0xff},
		Keys:           []string{"a", "", "long-key-name"},
		TraceID:        "trace-9",
		TraceSampled:   true,
		DeadlineMillis: 1500,
		Version:        ProtocolVersion,
	}
	got := roundTripRequest(t, req)
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("round trip = %+v, want %+v", got, req)
	}
}

// TestRequestFrameZeroValues: empty and nil fields both survive the trip
// as nil.
func TestRequestFrameZeroValues(t *testing.T) {
	req := &Request{Op: OpStart}
	got := roundTripRequest(t, req)
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("zero-value round trip = %+v, want %+v", got, req)
	}
	if got.Value != nil || got.Keys != nil {
		t.Fatalf("zero-length fields decoded non-nil: %+v", got)
	}
}

// TestResponseFrameRoundTrip exercises every response field.
func TestResponseFrameRoundTrip(t *testing.T) {
	resp := &Response{
		Code:     ErrCodeKeyNotFound,
		TxID:     "txn-1",
		Value:    []byte("payload"),
		CommitTS: 1234567890,
		Message:  "aft: key not found in read set",
		Values:   [][]byte{[]byte("a"), nil, []byte("ccc")},
		Version:  ProtocolVersion,
	}
	got := roundTripResponse(t, resp)
	// A nil element inside Values is legitimately collapsed;
	// normalize before comparing.
	want := *resp
	if !reflect.DeepEqual(got.Values[1], want.Values[1]) && len(got.Values[1]) == 0 {
		want.Values = [][]byte{[]byte("a"), nil, []byte("ccc")}
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("round trip = %+v, want %+v", got, &want)
	}
}

// TestFrameCorruptionDetected: a frame with any bit of its flags byte set
// is malformed and must surface errFrameFlags, never decode.
func TestFrameCorruptionDetected(t *testing.T) {
	req := &Request{Op: OpPut, TxID: "t", Key: "k", Value: []byte("value")}
	frame := appendRequestFrame(nil, 1, req)
	for bit := range 8 {
		mut := append([]byte(nil), frame...)
		mut[5] ^= 1 << bit // the flags byte follows the length and the op
		br := bufio.NewReader(bytes.NewReader(mut))
		var buf []byte
		if _, err := readFrame(br, &buf); !errors.Is(err, errFrameFlags) {
			t.Fatalf("flags bit %d set: readFrame = %v, want errFrameFlags", bit, err)
		}
	}
}

// TestFrameTruncationDetected: every possible mid-frame cut is either
// io.ErrUnexpectedEOF (transport died mid-frame) or a framing error —
// never a clean io.EOF, which is reserved for frame boundaries.
func TestFrameTruncationDetected(t *testing.T) {
	resp := &Response{Code: ErrNone, TxID: "t", Value: []byte("v")}
	frame := appendResponseFrame(nil, 3, resp)
	for cut := 1; cut < len(frame); cut++ {
		br := bufio.NewReader(bytes.NewReader(frame[:cut]))
		var buf []byte
		_, err := readFrame(br, &buf)
		if err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", cut, len(frame))
		}
		if err == io.EOF {
			t.Fatalf("truncation at %d/%d reported clean EOF", cut, len(frame))
		}
	}
	// A cut at offset 0 IS a clean boundary.
	br := bufio.NewReader(bytes.NewReader(nil))
	var buf []byte
	if _, err := readFrame(br, &buf); err != io.EOF {
		t.Fatalf("empty stream = %v, want io.EOF", err)
	}
}

// TestFrameLengthBounds: undersized and oversized length prefixes are
// rejected before any allocation proportional to the claimed size.
func TestFrameLengthBounds(t *testing.T) {
	small := binary.BigEndian.AppendUint32(nil, frameHeaderLen-1)
	br := bufio.NewReader(bytes.NewReader(small))
	var buf []byte
	if _, err := readFrame(br, &buf); !errors.Is(err, errFrameTruncated) {
		t.Fatalf("undersized frame = %v, want errFrameTruncated", err)
	}
	huge := binary.BigEndian.AppendUint32(nil, maxFrameLen+1)
	br = bufio.NewReader(bytes.NewReader(huge))
	if _, err := readFrame(br, &buf); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("oversized frame = %v, want errFrameTooLarge", err)
	}
}

// TestMultipleFramesOneBuffer: consecutive frames share the scratch
// buffer; each decode must copy what it keeps, so earlier requests stay
// intact after later reads overwrite the scratch bytes.
func TestMultipleFramesOneBuffer(t *testing.T) {
	var stream []byte
	want := []*Request{
		{Op: OpStart, TxID: "txn-1"},
		{Op: OpPut, TxID: "txn-1", Key: "k1", Value: []byte("first-value")},
		{Op: OpPut, TxID: "txn-1", Key: "k2", Value: []byte("second")},
		{Op: OpCommit, TxID: "txn-1"},
	}
	for i, r := range want {
		stream = appendRequestFrame(stream, uint64(i), r)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	var it internTable
	var got []*Request
	for i := 0; ; i++ {
		f, err := readFrame(br, &buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if f.id != uint64(i) {
			t.Fatalf("frame %d has ID %d", i, f.id)
		}
		req := new(Request)
		if err := decodeRequestFrame(f.code, f.payload, req, &it); err != nil {
			t.Fatal(err)
		}
		got = append(got, req)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		w := *want[i]
		if w.Value != nil && len(got[i].Value) == len(w.Value) {
			// readBytesReuse may alias pooled capacity; compare content.
			if !bytes.Equal(got[i].Value, w.Value) {
				t.Fatalf("frame %d Value = %q, want %q", i, got[i].Value, w.Value)
			}
			got[i].Value, w.Value = nil, nil
		}
		if !reflect.DeepEqual(got[i], &w) {
			t.Fatalf("frame %d = %+v, want %+v", i, got[i], &w)
		}
	}
}

// TestInternTableDeduplicates: the same txid bytes decode to the same
// string header across ops; the table stays within two generations
// instead of growing without limit; and a string that keeps recurring
// survives generation turnover, so a keyspace larger than one generation
// does not thrash.
func TestInternTableDeduplicates(t *testing.T) {
	var it internTable
	a := it.get([]byte("txn-1"))
	b := it.get([]byte("txn-1"))
	if a != b {
		t.Fatal("intern table returned different strings for equal bytes")
	}
	// Same backing pointer: interning actually deduplicates.
	if unsafeStringData(a) != unsafeStringData(b) {
		t.Fatal("interned strings have distinct backing arrays")
	}
	if it.get(nil) != "" {
		t.Fatal("empty bytes must intern to the empty string")
	}
	hot := it.get([]byte("hot-key"))
	for i := 0; i < 3*internTableMax; i++ {
		it.get([]byte{byte(i), byte(i >> 8), 'x'})
		if i%(internTableMax/2) == 0 {
			if got := it.get([]byte("hot-key")); unsafeStringData(got) != unsafeStringData(hot) {
				t.Fatalf("a recurring string was re-allocated after %d others", i)
			}
		}
	}
	if n := len(it.cur) + len(it.old); n > 2*internTableMax {
		t.Fatalf("intern table grew to %d entries, bound is %d", n, 2*internTableMax)
	}
}

func unsafeStringData(s string) *byte { return unsafe.StringData(s) }

// TestRequestPoolResetIsComplete: a pooled Request handed back by
// putRequest must not leak any previous op's fields into the next
// decode — especially Keys, whose backing array the node may retain — and
// neither may a server handler's reused Response, which keeps only the
// (emptied) value buffers the node reads into.
func TestRequestPoolResetIsComplete(t *testing.T) {
	req := getRequest(OpMultiGet)
	req.Op, req.TxID, req.Key = OpMultiGet, "txn", "key"
	req.Value = append(req.Value, 'v')
	req.Keys = []string{"a", "b"}
	req.TraceID, req.TraceSampled = "tr", true
	req.Version, req.DeadlineMillis = 3, 99
	putRequest(req)
	got := getRequest(OpMultiGet)
	defer putRequest(got)
	if got.Op != 0 || got.TxID != "" || got.Key != "" || len(got.Value) != 0 ||
		got.Keys != nil || got.TraceID != "" || got.TraceSampled ||
		got.Version != 0 || got.DeadlineMillis != 0 {
		t.Fatalf("pooled request not reset: %+v", got)
	}

	var h handler
	h.resp = Response{Code: ErrCodeOther, TxID: "t", Value: []byte("v"),
		Values: [][]byte{{1}}, Message: "m", CommitTS: 5, Version: 4}
	h.reset()
	if len(h.resp.Value) != 0 || len(h.resp.Values) != 0 {
		t.Fatalf("reused response keeps values: %+v", h.resp)
	}
	h.resp.Value, h.resp.Values = nil, nil
	if !reflect.DeepEqual(h.resp, Response{}) {
		t.Fatalf("reused response not reset: %+v", h.resp)
	}
	h.resp.Value = make([]byte, 0, retainedValueMax+1)
	h.reset()
	if h.resp.Value != nil {
		t.Fatalf("reset kept a %d-byte buffer past the %d-byte bound", cap(h.resp.Value), retainedValueMax)
	}
}
