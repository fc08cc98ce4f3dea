//go:build !race

package wire

import (
	"context"
	"testing"

	"aft/internal/core"
	"aft/internal/storage/dynamosim"
)

func TestEncodeErrNilAllocatesNothing(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { EncodeErr(nil) }); got != 0 {
		t.Fatalf("EncodeErr(nil): %v allocs/op, want 0", got)
	}
}

// TestDispatchDeadlineCostsOneAlloc: a request that carries the client's
// op budget may cost one allocation more than one that does not — the
// deadline context itself. context.WithTimeout cost four, on every RPC.
func TestDispatchDeadlineCostsOneAlloc(t *testing.T) {
	node, err := core.NewNode(core.Config{
		NodeID: "srv-alloc", Store: dynamosim.New(dynamosim.Options{}), EnableDataCache: true,
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

	get := func(deadlineMillis int64) float64 {
		req := &Request{Op: OpGet, TxID: txid, Key: "k", DeadlineMillis: deadlineMillis}
		resp := &Response{}
		return testing.AllocsPerRun(200, func() {
			*resp = Response{}
			srv.dispatch(srv.baseCtx, req, resp)
			if resp.Code != ErrNone || string(resp.Value) != "v" {
				t.Fatalf("Get = %q, code %d %s", resp.Value, resp.Code, resp.Message)
			}
		})
	}
	without, with := get(0), get(30_000)
	t.Logf("OpGet dispatch: %v allocs without a deadline, %v with", without, with)
	if with > without+1 {
		t.Fatalf("the deadline costs %v allocs per dispatch, want at most 1", with-without)
	}
}
