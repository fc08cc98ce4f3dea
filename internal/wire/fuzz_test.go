package wire

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"aft/internal/core"
	"aft/internal/storage/kvengine"
)

// The frame codec is the only parser on the network. These targets hold
// it to three promises on arbitrary bytes: it never panics, it never
// holds more than maxFrameLen of frame, and it never wedges the goroutine
// that owns the conn. Seed corpora live in testdata/fuzz/.

func fuzzSeedFrames() [][]byte {
	req := &Request{Op: OpMultiGet, TxID: "txn-1", Key: "k", Value: []byte("v"),
		Keys: []string{"a", "bb"}, TraceID: "trace", TraceSampled: true,
		Version: ProtocolVersion, DeadlineMillis: 1500}
	resp := &Response{Code: ErrCodeKeyNotFound, TxID: "txn-1", Value: []byte("v"), CommitTS: 99,
		Message: "m", Values: [][]byte{[]byte("a"), nil}, Version: ProtocolVersion}
	// flagged sets the flags byte, which makes a frame malformed.
	flagged := func(frame []byte) []byte {
		frame = bytes.Clone(frame)
		frame[5] = 1
		return frame
	}
	reqFrame, respFrame := appendRequestFrame(nil, 1, req), appendResponseFrame(nil, 3, resp)
	return [][]byte{reqFrame, flagged(reqFrame), respFrame, flagged(respFrame)}
}

func FuzzReadFrame(f *testing.F) {
	for _, frame := range fuzzSeedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			fr, err := readFrame(br, &buf)
			if cap(buf) > maxFrameLen {
				t.Fatalf("scratch buffer grew to %d bytes, past maxFrameLen", cap(buf))
			}
			if err != nil {
				return
			}
			if len(fr.payload) > len(data) {
				t.Fatalf("payload of %d bytes out of %d input bytes", len(fr.payload), len(data))
			}
		}
	})
}

func FuzzDecodeRequestFrame(f *testing.F) {
	seed := fuzzSeedFrames()[0]
	f.Add(seed[4], seed[4+frameHeaderLen:])
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		var it internTable
		req := getRequest(Op(op))
		defer putRequest(req)
		if err := decodeRequestFrame(op, payload, req, &it); err != nil {
			return
		}
		if req.DeadlineMillis < 0 || uint64(req.DeadlineMillis) > maxDeadlineMillis {
			t.Fatalf("DeadlineMillis %d overflows a Duration of milliseconds", req.DeadlineMillis)
		}
	})
}

func FuzzDecodeResponseFrame(f *testing.F) {
	seed := fuzzSeedFrames()[2]
	f.Add(seed[4], seed[4+frameHeaderLen:])
	f.Fuzz(func(t *testing.T, code byte, payload []byte) {
		var resp Response
		if err := decodeResponseFrame(code, payload, &resp); err != nil {
			return
		}
		total := len(resp.Value)
		for _, v := range resp.Values {
			total += len(v)
		}
		if total > len(payload) {
			t.Fatalf("decoded %d value bytes out of a %d-byte payload", total, len(payload))
		}
		// Every code, known or not, maps to an error value without panicking.
		_ = DecodeErr(resp.Code, resp.Message)
	})
}

// fuzzNode is shared by every FuzzServerPreface execution: frames that
// happen to be well-formed run real ops against it.
var fuzzNode = sync.OnceValue(func() *core.Node {
	node, err := core.NewNode(core.Config{NodeID: "fuzz", Store: kvengine.NewDynamoDB(kvengine.Options{})})
	if err != nil {
		panic(err)
	}
	return node
})

// FuzzServerPreface feeds arbitrary first bytes to a server conn. Whatever
// they are — a good preface and garbage frames, a wrong version, another
// protocol entirely — serveConn must return once the peer has hung up.
func FuzzServerPreface(f *testing.F) {
	hello := appendRequestFrame(bytes.Clone(preface[:]), 0, &Request{Op: OpPing, Version: ProtocolVersion})
	f.Add(hello)
	f.Add(appendRequestFrame(bytes.Clone(hello), 1, &Request{Op: OpStart, DeadlineMillis: 1 << 62}))
	f.Add(append(bytes.Clone(preface[:]), fuzzSeedFrames()[1]...))
	f.Fuzz(func(t *testing.T, first []byte) {
		srv := NewServer(fuzzNode())
		client, server := net.Pipe()
		srv.mu.Lock()
		srv.conns[server] = struct{}{}
		srv.mu.Unlock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.serveConn(server)
		}()
		go io.Copy(io.Discard, client) // replies and refusals
		client.Write(first)            // an error means the server already hung up
		client.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("conn goroutine still running 10s after the peer hung up (first bytes %q)", first)
		}
		srv.Close()
	})
}
