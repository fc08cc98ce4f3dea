package wire

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"aft/internal/core"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

// TestOpErrTimeoutBeatsDeadClient pins the opErr classification order: a
// conn-deadline expiry is a timeout FIRST, even when the client has
// concurrently been closed. Before the fix, opErr checked c.dead before
// the timeout classification, so an op that legitimately hit its
// deadline while another goroutine called Close was misreported as the
// terminal ErrClosed — and a retriable condition stopped being retried.
func TestOpErrTimeoutBeatsDeadClient(t *testing.T) {
	c := &Client{addr: "test"}
	c.dead = true

	err := c.opErr(os.ErrDeadlineExceeded)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("timeout on dead client = %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("timeout on dead client misclassified terminal: %v", err)
	}

	// The dead-client branch is reserved for conn-closed (non-timeout)
	// errors: those DID fail because Close pulled the conn.
	err = c.opErr(errors.New("read tcp: use of closed network connection"))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("conn error on dead client = %v, want ErrClosed", err)
	}

	// An alive client classifies conn errors retriable, timeouts as
	// deadline expiry.
	c.dead = false
	if err := c.opErr(errors.New("connection reset by peer")); !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("conn error on live client = %v, want ErrUnavailable", err)
	}
	if err := c.opErr(os.ErrDeadlineExceeded); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("timeout on live client = %v, want ErrDeadlineExceeded", err)
	}
}

// TestOpErrCloseRaceStress races short-deadline ops against Close under
// -race: every op must resolve to exactly one of the three classes, and
// an op that reports ErrDeadlineExceeded must never simultaneously
// claim ErrClosed (the misclassification the ordering fix removes).
func TestOpErrCloseRaceStress(t *testing.T) {
	for round := 0; round < 8; round++ {
		addr := startHalfOpen(t)
		client, err := DialWith(addr, DialConfig{MaxConns: 4, OpTimeout: 25 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := client.StartTransaction(context.Background())
				errs <- err
			}()
		}
		time.Sleep(time.Duration(round) * time.Millisecond)
		client.Close()
		wg.Wait()
		close(errs)
		for err := range errs {
			if err == nil {
				t.Fatal("op against half-open server succeeded")
			}
			timeout := errors.Is(err, ErrDeadlineExceeded)
			closed := errors.Is(err, ErrClosed)
			unavailable := errors.Is(err, storage.ErrUnavailable)
			if !timeout && !closed && !unavailable {
				t.Fatalf("unclassified op error: %v", err)
			}
			if timeout && closed {
				t.Fatalf("op error claims both timeout and closed: %v", err)
			}
		}
	}
}

// TestDecodeErrPreservesMessage pins the satellite fix: a known code
// with a server-side message decodes to an error that still matches the
// sentinel via errors.Is AND surfaces the server's text — which key was
// missing, why storage was unavailable — instead of discarding it.
func TestDecodeErrPreservesMessage(t *testing.T) {
	cases := []struct {
		code     ErrCode
		sentinel error
	}{
		{ErrCodeTxnNotFound, core.ErrTxnNotFound},
		{ErrCodeTxnFinished, core.ErrTxnFinished},
		{ErrCodeKeyNotFound, core.ErrKeyNotFound},
		{ErrCodeNoValidVersion, core.ErrNoValidVersion},
		{ErrCodeUnavailable, storage.ErrUnavailable},
		{ErrCodeVersionVanished, core.ErrVersionVanished},
		{ErrCodeOverloaded, core.ErrOverloaded},
		{ErrCodeDeadlineExceeded, ErrDeadlineExceeded},
	}
	for _, tc := range cases {
		msg := "server detail: key 'user/42' @ shard 3: " + tc.sentinel.Error()
		err := DecodeErr(tc.code, msg)
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("code %d with message no longer matches %v (got %v)", tc.code, tc.sentinel, err)
		}
		if err.Error() != msg {
			t.Errorf("code %d discarded the server message: got %q, want %q", tc.code, err.Error(), msg)
		}
		// ErrDeadlineExceeded must keep matching context.DeadlineExceeded
		// through the wrap (retry classification depends on it).
		if tc.code == ErrCodeDeadlineExceeded && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("wrapped deadline error lost context.DeadlineExceeded: %v", err)
		}
	}
}

// TestDecodeErrBareMessageStaysSentinel: when the message adds nothing —
// empty (v0 peers) or exactly the sentinel's own text (servers
// returning bare sentinels) — DecodeErr returns the bare sentinel, so
// legacy err == sentinel comparisons keep working.
func TestDecodeErrBareMessageStaysSentinel(t *testing.T) {
	if err := DecodeErr(ErrCodeKeyNotFound, ""); err != core.ErrKeyNotFound {
		t.Fatalf("empty message decoded to %v, want the bare sentinel", err)
	}
	if err := DecodeErr(ErrCodeKeyNotFound, core.ErrKeyNotFound.Error()); err != core.ErrKeyNotFound {
		t.Fatalf("identity message decoded to %v, want the bare sentinel", err)
	}
}

// TestServerErrorDetailCrossesWire proves the preserved message
// end-to-end: a commit failing on downed storage carries the server's
// "persisting" context back to the client, not just the sentinel text.
func TestServerErrorDetailCrossesWire(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	node, err := core.NewNode(core.Config{NodeID: "srv-err", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node)
	lnAddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(lnAddr.String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	txid, err := client.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Put(ctx, txid, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	store.SetAvailable(false)
	_, err = client.CommitTransaction(ctx, txid)
	if !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("commit on downed storage = %v, want ErrUnavailable", err)
	}
	if !strings.Contains(err.Error(), "persisting") {
		t.Fatalf("server-side context lost across the wire: %q", err.Error())
	}
}

// TestWireErrorFormats covers the wrapper's fmt behavior.
func TestWireErrorFormats(t *testing.T) {
	err := DecodeErr(ErrCodeUnavailable, "s3: throttled")
	if got := fmt.Sprintf("%v", err); got != "s3: throttled" {
		t.Fatalf("formatted = %q", got)
	}
	if !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("wrapped error lost sentinel: %v", err)
	}
}
