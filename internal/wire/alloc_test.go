//go:build !race

package wire

import (
	"bufio"
	"bytes"
	"context"
	"testing"

	"aft/internal/core"
	"aft/internal/storage/kvengine"
)

func TestEncodeErrNilAllocatesNothing(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { EncodeErr(nil) }); got != 0 {
		t.Fatalf("EncodeErr(nil): %v allocs/op, want 0", got)
	}
}

// TestReadFrameAllocatesNothing: once the conn's scratch buffer has grown
// to the frame size, reading a frame allocates nothing — not even the
// 4-byte length, which an io.ReadFull into a local array would move to the
// heap on every frame.
func TestReadFrameAllocatesNothing(t *testing.T) {
	const frames = 201
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = appendRequestFrame(stream, uint64(i), &Request{Op: OpGet, TxID: "txn", Key: "k", DeadlineMillis: 500})
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	got := testing.AllocsPerRun(frames-1, func() {
		if _, err := readFrame(br, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("readFrame: %v allocs/frame, want 0", got)
	}
}

// TestDispatchAllocBudget: in steady state a server handler serves a Get
// of a cached key, carrying the client's deadline, without allocating —
// the handler's deadline context and response are reused and the node
// appends the value into the response — and a Put allocates only the copy
// of the value the node buffers.
func TestDispatchAllocBudget(t *testing.T) {
	node, err := core.NewNode(core.Config{
		NodeID: "srv-alloc", Store: kvengine.NewDynamoDB(kvengine.Options{}), EnableDataCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node)
	defer srv.Close()
	ctx := context.Background()
	w, _ := node.StartTransaction(ctx)
	node.Put(ctx, w, "k", []byte("v"))
	if _, err := node.CommitTransaction(ctx, w); err != nil {
		t.Fatal(err)
	}
	txid, _ := node.StartTransaction(ctx)

	h := new(handler)
	dispatch := func(req *Request) float64 {
		return testing.AllocsPerRun(200, func() {
			srv.dispatch(srv.baseCtx, h, req)
			if h.resp.Code != ErrNone {
				t.Fatalf("%s: code %d %s", opName(req.Op), h.resp.Code, h.resp.Message)
			}
			h.reset()
		})
	}
	get := dispatch(&Request{Op: OpGet, TxID: txid, Key: "k", DeadlineMillis: 30_000})
	put := dispatch(&Request{Op: OpPut, TxID: txid, Key: "p", Value: []byte("value"), DeadlineMillis: 30_000})
	t.Logf("dispatch with a deadline: Get %v allocs, Put %v", get, put)
	if get != 0 {
		t.Errorf("Get dispatch costs %v allocs, want 0", get)
	}
	if put > 1 {
		t.Errorf("Put dispatch costs %v allocs, want at most 1 (the buffered value)", put)
	}
}
