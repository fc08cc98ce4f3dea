package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"aft/internal/chaos"
	"aft/internal/core"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

// TestPipelineConcurrentOpsOneConn: with the pool capped at ONE
// connection, many concurrent ops must still all make progress by
// sharing the pipe — the high-water depth proves they overlapped in
// flight rather than serializing lockstep.
func TestPipelineConcurrentOpsOneConn(t *testing.T) {
	checkGoroutineLeak(t)
	_, addr, node := startServer(t)
	client, err := DialWith(addr, DialConfig{MaxConns: 1, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				txid, err := client.StartTransaction(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				k := fmt.Sprintf("p%d-%d", w, i)
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
	if got := node.Metrics().Snapshot().Committed; got != workers*5 {
		t.Fatalf("committed = %d, want %d", got, workers*5)
	}
	m := client.Metrics().Snapshot()
	if m.PipelineDepthHW < 2 {
		t.Fatalf("pipeline depth high-water = %d, want >= 2 (ops never overlapped on the conn)", m.PipelineDepthHW)
	}
	if m.BinaryConns != 1 {
		t.Fatalf("binary conns = %d, want 1 (MaxConns caps the pool)", m.BinaryConns)
	}
}

// TestPipelineOutOfOrderCompletion: the fake server buffers a batch of
// requests and answers them in REVERSE order. Each pipelined caller
// must still receive its own response — the request-ID demux, not
// arrival order, pairs frames with waiters.
func TestPipelineOutOfOrderCompletion(t *testing.T) {
	checkGoroutineLeak(t)
	const batch = 6
	fake := startFrameFake(t, func(br *bufio.Reader, fw *frameWriter) {
		var buf []byte
		var it internTable
		type pend struct {
			id  uint64
			key string
		}
		var pends []pend
		for {
			f, err := readFrame(br, &buf)
			if err != nil {
				return
			}
			var req Request
			if err := decodeRequestFrame(f.code, f.payload, &req, &it); err != nil {
				return
			}
			pends = append(pends, pend{f.id, req.Key})
			if len(pends) == batch {
				for i := len(pends) - 1; i >= 0; i-- { // reverse order
					resp := Response{Value: []byte(pends[i].key)}
					if err := fw.writeResponse(pends[i].id, &resp); err != nil {
						return
					}
				}
				pends = pends[:0]
			}
		}
	})

	client, err := DialWith(fake.addr(), DialConfig{MaxConns: 1, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", i)
			v, err := client.Get(ctx, "txn", key)
			if err != nil {
				t.Errorf("Get(%s): %v", key, err)
				return
			}
			if string(v) != key {
				t.Errorf("Get(%s) demuxed someone else's response: %q", key, v)
			}
		}(i)
	}
	wg.Wait()
}

// TestPipelineTimeoutAbandonsOpSiblingsRetriable: a half-open server
// (reads frames, never answers). The op that hits its deadline reports,
// within that deadline, the retriable ErrDeadlineExceeded (wrapping
// context.DeadlineExceeded); the conn is then retired, so pipelined
// siblings fail retriably too — and NOTHING reports the terminal
// ErrClosed, because the client itself is still open.
func TestPipelineTimeoutAbandonsOpSiblingsRetriable(t *testing.T) {
	checkGoroutineLeak(t)
	client, err := DialWith(startHalfOpen(t), DialConfig{MaxConns: 1, OpTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	const ops = 4
	errs := make(chan error, ops)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := client.StartTransaction(ctx)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("ops took %v, want ~OpTimeout (100ms)", elapsed)
	}
	timeouts := 0
	for err := range errs {
		if err == nil {
			t.Fatal("op against half-open binary server succeeded")
		}
		if errors.Is(err, ErrClosed) {
			t.Fatalf("pipelined op misclassified terminal: %v", err)
		}
		switch {
		case errors.Is(err, ErrDeadlineExceeded) && errors.Is(err, context.DeadlineExceeded):
			timeouts++
		case errors.Is(err, storage.ErrUnavailable):
			// Sibling killed by the timed-out op retiring the conn.
		default:
			t.Fatalf("unclassified pipelined failure: %v", err)
		}
	}
	if timeouts == 0 {
		t.Fatal("no op reported ErrDeadlineExceeded")
	}
	if got := client.Metrics().Snapshot().Timeouts; got == 0 {
		t.Fatalf("wire timeout counter = %d, want > 0", got)
	}
}

// TestServerCloseCancelsParkedHandlers pins the serveConn context fix:
// handlers run under a server-lifetime context, so a handler parked in
// the node's admission wait (MaxConcurrent exhausted) unblocks when the
// server closes. Before the fix handlers ran under Background and the
// parked goroutine survived Close forever — Close itself hung on the
// handler WaitGroup, and the goroutine census below failed.
func TestServerCloseCancelsParkedHandlers(t *testing.T) {
	checkGoroutineLeak(t)
	store := kvengine.NewDynamoDB(kvengine.Options{})
	node, err := core.NewNode(core.Config{
		NodeID: "srv-adm", Store: store,
		MaxConcurrent: 1, AdmissionQueue: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialWith(addr.String(), DialConfig{MaxConns: 1, OpTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	// Hold the only concurrency slot open.
	if _, err := client.StartTransaction(ctx); err != nil {
		t.Fatal(err)
	}
	// Park a second Start in the admission queue.
	parked := make(chan error, 1)
	go func() {
		_, err := client.StartTransaction(ctx)
		parked <- err
	}()
	time.Sleep(100 * time.Millisecond) // let it reach the admission wait

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close hung behind a handler parked in admission")
	}
	select {
	case err := <-parked:
		if err == nil {
			t.Fatal("parked Start succeeded after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked op never unblocked after server close")
	}
}

// TestPipelineChaosMidFrameResets: the chaos layer cuts the connection
// mid-frame on a recurring cadence while a redo-until-commit workload
// runs. Every cut must classify retriably and the workload must
// converge.
func TestPipelineChaosMidFrameResets(t *testing.T) {
	checkGoroutineLeak(t)
	store := kvengine.NewDynamoDB(kvengine.Options{})
	node, err := core.NewNode(core.Config{NodeID: "srv-chaos", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nc := chaos.WrapListener(raw, chaos.NetConfig{Seed: 7})
	srv := NewServer(node)
	addr := srv.Serve(nc)
	defer srv.Close()

	client, err := DialWith(addr.String(), DialConfig{
		MaxConns: 2, OpTimeout: 500 * time.Millisecond, DialTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	committed := 0
	for i := 0; i < 10; i++ {
		nc.ResetAfterWrites(3) // cut three write-frames from now, repeatedly
		key := fmt.Sprintf("chaos-%d", i)
		deadline := time.Now().Add(10 * time.Second)
		for attempt := 0; ; attempt++ {
			if time.Now().After(deadline) {
				t.Fatalf("key %s: no commit after %d attempts", key, attempt)
			}
			txid, err := client.StartTransaction(ctx)
			if err != nil {
				requireRetriable(t, err)
				continue
			}
			if err := client.Put(ctx, txid, key, []byte{byte(i)}); err != nil {
				requireRetriable(t, err)
				continue
			}
			if _, err := client.CommitTransaction(ctx, txid); err != nil {
				requireRetriable(t, err)
				continue
			}
			committed++
			break
		}
	}
	if committed != 10 {
		t.Fatalf("committed %d/10 under mid-frame resets", committed)
	}
	// §3.1: redone commits are idempotent; every committed key readable.
	txid, err := client.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v, err := client.Get(ctx, txid, fmt.Sprintf("chaos-%d", i))
		if err != nil || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("chaos-%d = %v, %v", i, v, err)
		}
	}
	if rm := nc.NetFaultMetrics().Snapshot(); rm.Resets == 0 {
		t.Fatalf("chaos injected no resets; the campaign tested nothing (metrics %+v)", rm)
	}
}

// requireRetriable fails the test when err is terminal: under connection
// chaos every failure must be retriable or the redo discipline breaks.
func requireRetriable(t *testing.T, err error) {
	t.Helper()
	if errors.Is(err, ErrClosed) {
		t.Fatalf("terminal error under chaos: %v", err)
	}
	if !errors.Is(err, storage.ErrUnavailable) && !errors.Is(err, ErrDeadlineExceeded) &&
		!errors.Is(err, core.ErrTxnNotFound) {
		t.Fatalf("unclassified error under chaos: %v", err)
	}
}
