package wire

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"aft/internal/storage"
)

// checkGoroutineLeak arranges a final census: every goroutine the test
// starts (server accept loops, conn handlers, blocked ops) must be gone
// when its cleanups finish. Call it FIRST so its cleanup runs last.
func checkGoroutineLeak(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine() - before; n > 0 {
			t.Errorf("leaked %d goroutines", n)
		}
	})
}

// TestClientCloseUnblocksInflight: an op parked forever against a
// half-open server (no op timeout, no ctx deadline) must be released by
// Close with the terminal ErrClosed — Close is the caller's last resort
// and cannot itself hang behind the stuck op.
func TestClientCloseUnblocksInflight(t *testing.T) {
	checkGoroutineLeak(t)
	addr := startHalfOpen(t)
	client, err := DialWith(addr, DialConfig{MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}

	res := make(chan error, 1)
	go func() {
		_, err := client.StartTransaction(context.Background())
		res <- err
	}()
	// Wait until the op is truly parked in its read, then pull the plug.
	time.Sleep(50 * time.Millisecond)
	client.Close()
	select {
	case err := <-res:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("interrupted op = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the in-flight op")
	}
	// Ops after Close fail fast with the same terminal error.
	if _, err := client.StartTransaction(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("op after Close = %v, want ErrClosed", err)
	}
}

// TestClientRedialFailureRetriable: when the server dies under an
// established client, both the in-flight conn errors AND the subsequent
// mid-pool redial failures must classify as the retriable
// storage.ErrUnavailable — the redo discipline owns recovery, so neither
// may surface as terminal.
func TestClientRedialFailureRetriable(t *testing.T) {
	checkGoroutineLeak(t)
	srv, addr, _ := startServer(t)
	client, err := DialWith(addr, DialConfig{MaxConns: 2, OpTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	txid, err := client.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.AbortTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	// First op dies on the pooled conn (EOF/reset), later ops on the
	// failed redial: every one must be retriable, never ErrClosed.
	for i := 0; i < 3; i++ {
		_, err := client.StartTransaction(ctx)
		if err == nil {
			t.Fatalf("op %d against a dead server succeeded", i)
		}
		if !errors.Is(err, storage.ErrUnavailable) {
			t.Fatalf("op %d = %v, want retriable storage.ErrUnavailable", i, err)
		}
		if errors.Is(err, ErrClosed) {
			t.Fatalf("op %d misclassified as terminal ErrClosed: %v", i, err)
		}
	}
}
