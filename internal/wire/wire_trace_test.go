package wire

import (
	"context"
	"errors"
	"testing"

	"aft/internal/core"
	"aft/internal/lb"
	"aft/internal/storage/kvengine"
	"aft/internal/telemetry"
)

func startTracedServer(t *testing.T) (string, *telemetry.Tracer) {
	t.Helper()
	tracer := telemetry.NewTracer(telemetry.TracerOptions{
		Node: "srv-t", SampleEvery: -1, SlowThreshold: -1,
	})
	store := kvengine.NewDynamoDB(kvengine.Options{})
	node, err := core.NewNode(core.Config{NodeID: "srv-t", Store: store, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String(), tracer
}

// TestTraceContextSurvivesWire proves a client-minted trace ID rides
// client → lb → node: the server's tracer retains the transaction under
// the CLIENT's ID, with layer spans recorded node-side.
func TestTraceContextSurvivesWire(t *testing.T) {
	addr, tracer := startTracedServer(t)
	client, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	bal := lb.New(client)

	ctx := telemetry.WithTraceContext(context.Background(),
		telemetry.TraceContext{ID: "client-trace-7", Sampled: true})
	txid, err := bal.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := bal.Put(ctx, txid, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := bal.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}

	recs := tracer.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("retained %d traces, want 1", len(recs))
	}
	r := recs[0]
	if r.TraceID != "client-trace-7" || r.TxID != txid || r.Kept != "client" {
		t.Fatalf("trace record = %+v", r)
	}
	var sawCommit bool
	for _, sp := range r.Spans {
		if sp.Name == "node.commit" {
			sawCommit = true
		}
	}
	if !sawCommit {
		t.Fatalf("no node.commit span in %+v", r.Spans)
	}
}

// TestUntracedClientStillWorks: a transaction started without a trace
// context is served normally and retains nothing.
func TestUntracedClientStillWorks(t *testing.T) {
	addr, tracer := startTracedServer(t)
	client, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	txid, err := client.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	if recs := tracer.Snapshot(); len(recs) != 0 {
		t.Fatalf("untraced txn retained: %+v", recs)
	}
}

func TestUnknownOpTypedError(t *testing.T) {
	addr, _ := startTracedServer(t)
	client, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var resp Response
	if err := client.call(context.Background(), &Request{Op: Op(99)}, &resp); err != nil {
		t.Fatal(err)
	}
	derr := DecodeErr(resp.Code, resp.Message)
	var unknown *UnknownOpError
	if !errors.As(derr, &unknown) {
		t.Fatalf("decoded error = %v (%T), want UnknownOpError", derr, derr)
	}
	if unknown.Op != 99 {
		t.Fatalf("offending op = %d, want 99", unknown.Op)
	}
	if unknown.Error() == "" {
		t.Fatal("empty error message")
	}
}

func TestUnknownOpEncodeDecodeRoundTrip(t *testing.T) {
	code, msg := EncodeErr(&UnknownOpError{Op: 42})
	if code != ErrCodeUnknownOp {
		t.Fatalf("code = %v", code)
	}
	var unknown *UnknownOpError
	if err := DecodeErr(code, msg); !errors.As(err, &unknown) || unknown.Op != 42 {
		t.Fatalf("round trip = %v", err)
	}
	// A malformed message (hand-rolled peer) degrades to a
	// RemoteError rather than failing decode.
	var re *RemoteError
	if err := DecodeErr(ErrCodeUnknownOp, "not-a-number"); !errors.As(err, &re) {
		t.Fatalf("malformed unknown-op message = %v", err)
	}
}
