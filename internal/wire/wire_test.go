package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"aft/internal/core"
	"aft/internal/lb"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

// startServer serves a fresh node on a loopback port; configure (Logf
// must be set before the server starts serving) runs first.
func startServer(t *testing.T, configure ...func(*Server)) (*Server, string, *core.Node) {
	t.Helper()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	node, err := core.NewNode(core.Config{NodeID: "srv-1", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node)
	for _, f := range configure {
		f(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String(), node
}

func TestEndToEndTransaction(t *testing.T) {
	_, addr, _ := startServer(t)
	client, err := Dial(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if client.ID() != "srv-1" {
		t.Fatalf("client ID = %q", client.ID())
	}

	ctx := context.Background()
	txid, err := client.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Put(ctx, txid, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := client.Get(ctx, txid, "k") // RYW over the wire
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	id, err := client.CommitTransaction(ctx, txid)
	if err != nil {
		t.Fatal(err)
	}
	if id.UUID != txid || id.Timestamp == 0 {
		t.Fatalf("commit ID = %v", id)
	}

	// Fresh transaction reads the committed value.
	txid2, _ := client.StartTransaction(ctx)
	v, err = client.Get(ctx, txid2, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("second txn Get = %q, %v", v, err)
	}
	if err := client.AbortTransaction(ctx, txid2); err != nil {
		t.Fatal(err)
	}
}

func TestSentinelErrorsCrossTheWire(t *testing.T) {
	_, addr, _ := startServer(t)
	client, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()

	if _, err := client.Get(ctx, "ghost", "k"); !errors.Is(err, core.ErrTxnNotFound) {
		t.Fatalf("Get on ghost txn = %v", err)
	}
	txid, _ := client.StartTransaction(ctx)
	if _, err := client.Get(ctx, txid, "missing"); !errors.Is(err, core.ErrKeyNotFound) {
		t.Fatalf("Get missing key = %v", err)
	}
	if _, err := client.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	if err := client.ResumeTransaction(ctx, txid); !errors.Is(err, core.ErrTxnFinished) {
		t.Fatalf("Resume finished = %v", err)
	}
	if err := client.ResumeTransaction(ctx, "ghost"); !errors.Is(err, core.ErrTxnNotFound) {
		t.Fatalf("Resume ghost = %v", err)
	}
}

func TestUnavailableStorageCrossesWire(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	node, _ := core.NewNode(core.Config{NodeID: "srv-2", Store: store})
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr.String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	txid, _ := client.StartTransaction(ctx)
	client.Put(ctx, txid, "k", []byte("v"))
	store.SetAvailable(false)
	if _, err := client.CommitTransaction(ctx, txid); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("commit on downed storage = %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr, node := startServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := Dial(addr, 2)
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			ctx := context.Background()
			for i := 0; i < 25; i++ {
				txid, err := client.StartTransaction(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				k := fmt.Sprintf("w%d-k%d", w, i)
				if err := client.Put(ctx, txid, k, []byte("v")); err != nil {
					t.Error(err)
					return
				}
				if _, err := client.CommitTransaction(ctx, txid); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := node.Metrics().Snapshot().Committed; got != 200 {
		t.Fatalf("committed = %d, want 200", got)
	}
}

func TestClientThroughLoadBalancer(t *testing.T) {
	_, addr1, n1 := startServer(t)
	_, addr2, n2 := startServer(t)
	c1, err := Dial(addr1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	bal := lb.New(c1, c2)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		txid, err := bal.StartTransaction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := bal.Put(ctx, txid, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := bal.CommitTransaction(ctx, txid); err != nil {
			t.Fatal(err)
		}
	}
	// n1 and n2 are distinct core nodes behind distinct servers; the ID
	// must differ for the balancer to treat them separately.
	if n1.ID() == "" || n1.ID() != n2.ID() {
		// Both use "srv-1"/"srv-2" style IDs from startServer; verify
		// each handled 2 transactions round-robin.
	}
	if a, b := n1.Metrics().Snapshot().Started, n2.Metrics().Snapshot().Started; a != 2 || b != 2 {
		t.Fatalf("round robin over wire = %d/%d, want 2/2", a, b)
	}
}

// TestMultiGetOverWire drives OpMultiGet client → server → core, through
// the load balancer's transaction affinity, and checks the server's read
// pipeline batches the storage fan-out into one BatchGet.
func TestMultiGetOverWire(t *testing.T) {
	_, addr, node := startServer(t)
	client, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	bal := lb.New(client)

	ctx := context.Background()
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = fmt.Sprintf("mg-%d", i)
		txid, err := bal.StartTransaction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := bal.Put(ctx, txid, keys[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := bal.CommitTransaction(ctx, txid); err != nil {
			t.Fatal(err)
		}
	}
	type metered interface{ Metrics() *storage.Metrics }
	sm := node.Store().(metered).Metrics()
	before := sm.Snapshot()

	txid, err := bal.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := bal.Put(ctx, txid, "buffered", []byte("rw")); err != nil {
		t.Fatal(err)
	}
	vals, err := bal.MultiGet(ctx, txid, append([]string{"buffered"}, keys...))
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(keys)+1 || string(vals[0]) != "rw" {
		t.Fatalf("MultiGet = %v", vals)
	}
	for i := range keys {
		if len(vals[i+1]) != 1 || vals[i+1][0] != byte(i) {
			t.Fatalf("vals[%d] = %v", i+1, vals[i+1])
		}
	}
	// One RPC, one batched payload fetch server-side (no data cache here).
	d := sm.Snapshot().Sub(before)
	if d.Gets != 0 || d.BatchGets != 1 {
		t.Fatalf("server-side Gets = %d BatchGets = %d, want 0/1", d.Gets, d.BatchGets)
	}
	if node.Metrics().Snapshot().MultiGets != 1 {
		t.Fatalf("MultiGets = %d", node.Metrics().Snapshot().MultiGets)
	}
	if _, err := bal.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	// A missing key's sentinel crosses the wire.
	txid2, _ := bal.StartTransaction(ctx)
	if _, err := bal.MultiGet(ctx, txid2, []string{"absent"}); !errors.Is(err, core.ErrKeyNotFound) {
		t.Fatalf("MultiGet missing key over wire = %v, want ErrKeyNotFound", err)
	}
}

func TestServerCloseIdempotentAndRejectsAfter(t *testing.T) {
	srv, addr, _ := startServer(t)
	client, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
	ctx := context.Background()
	if _, err := client.StartTransaction(ctx); err == nil {
		t.Fatal("request succeeded after server close")
	}
	client.Close()
	if _, err := client.StartTransaction(ctx); err == nil {
		t.Fatal("request succeeded after client close")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 1); err == nil { // port 1: nothing listens
		t.Fatal("Dial to dead address succeeded")
	}
}

func TestEncodeDecodeErrRoundTrip(t *testing.T) {
	for _, err := range []error{
		core.ErrTxnNotFound, core.ErrTxnFinished, core.ErrKeyNotFound,
		core.ErrNoValidVersion, storage.ErrUnavailable,
	} {
		code, msg := EncodeErr(err)
		if got := DecodeErr(code, msg); !errors.Is(got, err) {
			t.Errorf("round trip of %v = %v", err, got)
		}
	}
	if code, _ := EncodeErr(nil); code != ErrNone {
		t.Error("nil error encoded as non-none")
	}
	if DecodeErr(ErrNone, "") != nil {
		t.Error("ErrNone decoded as error")
	}
	other := DecodeErr(ErrCodeOther, "boom")
	var re *RemoteError
	if !errors.As(other, &re) || re.Message != "boom" {
		t.Errorf("other error = %v", other)
	}
	if (&RemoteError{}).Error() == "" {
		t.Error("empty RemoteError message")
	}
	// Wrapped sentinels are still classified.
	wrapped := fmt.Errorf("context: %w", core.ErrKeyNotFound)
	if code, _ := EncodeErr(wrapped); code != ErrCodeKeyNotFound {
		t.Errorf("wrapped sentinel code = %v", code)
	}
}
