package wire

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeServer is a hand-rolled peer for scripting server behaviour the real
// one never exhibits (reply out of order, go silent after the handshake,
// refuse the version). handle runs once per accepted conn; the listener,
// every conn and every goroutine are torn down at test cleanup.
type fakeServer struct {
	ln       net.Listener
	accepted atomic.Int64
}

func (f *fakeServer) addr() string { return f.ln.Addr().String() }

func startFakeServer(t *testing.T, addr string, handle func(conn net.Conn)) *fakeServer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{ln: ln}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			f.accepted.Add(1)
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				handle(conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return f
}

// startFrameFake is a fake that completes the handshake the way the real
// server does, as node "fake", then hands the framed side of each conn to
// serve. The conn stays open after serve returns.
func startFrameFake(t *testing.T, serve func(br *bufio.Reader, fw *frameWriter)) *fakeServer {
	t.Helper()
	return startFakeServer(t, "127.0.0.1:0", func(conn net.Conn) {
		br := bufio.NewReader(conn)
		var got [len(preface)]byte
		if _, err := io.ReadFull(br, got[:]); err != nil {
			return
		}
		var buf []byte
		hello, err := readFrame(br, &buf)
		if err != nil {
			return
		}
		if got != preface || Op(hello.code) != OpPing {
			t.Errorf("fake server: conn opened with %q and op %d, want %q and the OpPing hello", got, hello.code, preface)
			return
		}
		fw := newFrameWriter(conn, new(Metrics))
		defer fw.close()
		if fw.writeResponse(hello.id, &Response{Value: []byte("fake"), Version: ProtocolVersion}) != nil {
			return
		}
		serve(br, fw)
	})
}

// startHalfOpen returns the address of a server that completes the
// handshake and then goes silent: it keeps reading frames but never
// answers again. The nastiest failure mode for a client — the TCP
// connection is perfectly healthy, only the application stopped.
func startHalfOpen(t *testing.T) string {
	t.Helper()
	return startFrameFake(t, func(br *bufio.Reader, _ *frameWriter) {
		var buf []byte
		for {
			if _, err := readFrame(br, &buf); err != nil {
				return
			}
		}
	}).addr()
}

// refuseVersion is a conn handler standing in for a build of another
// protocol version: it answers the preface with the one refusal frame the
// real server sends, and closes.
func refuseVersion(conn net.Conn) {
	defer conn.Close()
	if _, err := bufio.NewReader(conn).Discard(len(preface)); err != nil {
		return
	}
	code, msg := EncodeErr(ErrUnsupportedVersion)
	conn.Write(appendResponseFrame(nil, 0, &Response{Code: code, Message: msg, Version: ProtocolVersion + 1}))
}

// gobV3Ping is the first message a protocol-v3 build wrote on a new conn,
// its gob-encoded OpPing, captured from that build.
var gobV3Ping = []byte("|\x7f\x03\x01\x01\aRequest\x01\xff\x80\x00\x01\t\x01\x02Op\x01\x06\x00\x01\x04TxID\x01\f\x00\x01\x03Key\x01\f\x00\x01\x05Value\x01\n\x00\x01\x04Keys\x01\xff\x82\x00\x01\aTraceID\x01\f\x00\x01\fTraceSampled\x01\x02\x00\x01\aVersion\x01\x06\x00\x01\x0eDeadlineMillis\x01\x04\x00\x00\x00\x16\xff\x81\x02\x01\x01\b[]string\x01\xff\x82\x00\x01\f\x00\x00\a\xff\x80\x01\a\a\x03\x00")
