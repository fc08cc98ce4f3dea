package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"aft/internal/retry"
	"aft/internal/storage"
	"aft/internal/telemetry"
)

// TestHandshakeGood: the one way in. The hello teaches the client the node
// ID on the conn it keeps, and the first OpStart behind it already carries
// the trace context and the deadline budget.
func TestHandshakeGood(t *testing.T) {
	checkGoroutineLeak(t)
	starts := make(chan Request, 1)
	fake := startFrameFake(t, func(br *bufio.Reader, fw *frameWriter) {
		var buf []byte
		var it internTable
		for {
			f, err := readFrame(br, &buf)
			if err != nil {
				return
			}
			var req Request
			if err := decodeRequestFrame(f.code, f.payload, &req, &it); err != nil {
				t.Errorf("fake server: %v", err)
				return
			}
			if req.Op == OpStart {
				starts <- req
			}
			if fw.writeResponse(f.id, &Response{TxID: "fake-txn"}) != nil {
				return
			}
		}
	})
	client, err := DialWith(fake.addr(), DialConfig{MaxConns: 1, OpTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.ID() != "fake" {
		t.Fatalf("node ID learned from the hello = %q, want fake", client.ID())
	}
	ctx := telemetry.WithTraceContext(context.Background(), telemetry.TraceContext{ID: "hs-trace", Sampled: true})
	if txid, err := client.StartTransaction(ctx); err != nil || txid != "fake-txn" {
		t.Fatalf("first op = %q, %v", txid, err)
	}
	req := <-starts
	if req.TraceID != "hs-trace" || !req.TraceSampled || req.DeadlineMillis <= 0 || req.DeadlineMillis > 2000 {
		t.Fatalf("first OpStart = %+v, want the trace context and a deadline within (0, 2000] ms", req)
	}
	if got := fake.accepted.Load(); got != 1 {
		t.Fatalf("handshake + op used %d conns, want 1", got)
	}
}

// TestHandshakeServerRefusesForeignPeers: first bytes that are not this
// protocol. A wrong version gets exactly one refusal frame, a wrong magic
// gets nothing; either way the conn is closed, the server logs once, leaks
// no goroutine and keeps serving everyone else.
func TestHandshakeServerRefusesForeignPeers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		first   []byte
		refusal bool
	}{
		// The framing behind another version's preface is unknowable:
		// the server must answer from the four bytes alone.
		{"wrong version", []byte("AFT\x03some past or future framing"), true},
		{"version 0", []byte("AFT\x00"), true},
		{"gob v3 ping", gobV3Ping, false},
		{"http", []byte("GET / HTTP/1.1\r\nHost: aft\r\n\r\n"), false},
		{"near-miss magic", []byte("AFX\x04\x00\x00\x00\x0a"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGoroutineLeak(t)
			var logged atomic.Int64
			_, addr, _ := startServer(t, func(s *Server) {
				s.Logf = func(string, ...any) { logged.Add(1) }
			})
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.first); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			reply, err := io.ReadAll(conn)
			if isTimeout(err) {
				t.Fatalf("server did not close the conn: %v", err)
			}
			if !tc.refusal {
				if len(reply) != 0 {
					t.Fatalf("server answered a non-AFT peer with %q", reply)
				}
			} else {
				br := bufio.NewReader(bytes.NewReader(reply))
				var buf []byte
				f, err := readFrame(br, &buf)
				if err != nil {
					t.Fatalf("refusal is not a well-formed frame: %v (%q)", err, reply)
				}
				var resp Response
				if err := decodeResponseFrame(f.code, f.payload, &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Code != ErrCodeUnsupportedVersion || resp.Version != ProtocolVersion || f.id != 0 ||
					!errors.Is(DecodeErr(resp.Code, resp.Message), ErrUnsupportedVersion) {
					t.Fatalf("refusal = %+v (request ID %d)", resp, f.id)
				}
				if _, err := br.ReadByte(); err != io.EOF {
					t.Fatalf("server wrote past its one refusal frame (%q)", reply)
				}
			}
			if n := logged.Load(); n != 1 {
				t.Fatalf("server logged %d lines for one foreign peer, want 1", n)
			}
			client, err := Dial(addr, 1)
			if err != nil {
				t.Fatalf("server stopped serving well-behaved clients: %v", err)
			}
			defer client.Close()
			if err := client.Ping(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHandshakeClientSeesUnsupportedVersion: the client's side of a refusal
// is the terminal ErrUnsupportedVersion within one round trip — from Dial,
// and from a pooled redial after the server was replaced under a live
// client — at one dial per attempt, never a retry storm.
func TestHandshakeClientSeesUnsupportedVersion(t *testing.T) {
	requireTerminal := func(t *testing.T, err error) {
		t.Helper()
		if !errors.Is(err, ErrUnsupportedVersion) {
			t.Fatalf("err = %v, want ErrUnsupportedVersion", err)
		}
		if retry.Retriable(err) {
			t.Fatalf("version refusal classified retriable: %v", err)
		}
	}

	t.Run("dial", func(t *testing.T) {
		checkGoroutineLeak(t)
		fake := startFakeServer(t, "127.0.0.1:0", refuseVersion)
		start := time.Now()
		client, err := DialWith(fake.addr(), DialConfig{MaxConns: 4, OpTimeout: 5 * time.Second})
		if err == nil {
			client.Close()
		}
		requireTerminal(t, err)
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("refusal took %v, want one round trip (not the op timeout)", elapsed)
		}
		if got := fake.accepted.Load(); got != 1 {
			t.Fatalf("Dial opened %d conns against a refusing server, want 1", got)
		}
	})

	t.Run("pooled redial", func(t *testing.T) {
		checkGoroutineLeak(t)
		srv, addr, _ := startServer(t)
		client, err := DialWith(addr, DialConfig{MaxConns: 2, OpTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		ctx := context.Background()
		if err := client.Ping(ctx); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		fake := startFakeServer(t, addr, refuseVersion) // the replacement build, same address

		// The op that finds the old conn dead may still report that as a
		// retriable transport failure; from the first redial on, every
		// op gets the terminal answer.
		var got error
		ops := int64(0)
		for got = client.Ping(ctx); ops < 10 && errors.Is(got, storage.ErrUnavailable); got = client.Ping(ctx) {
			ops++
		}
		requireTerminal(t, got)
		if dials := fake.accepted.Load(); dials > ops+1 {
			t.Fatalf("%d ops caused %d redials", ops+1, dials)
		}
	})
}
