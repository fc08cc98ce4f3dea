package wire

import (
	"context"
	"sync"
	"testing"
	"time"

	"aft/internal/core"
	"aft/internal/storage/kvengine"
)

// gatedStore blocks every write while its gate is closed, signalling each
// write that parks on entered.
type gatedStore struct {
	*kvengine.DynamoDB
	entered chan struct{}
	mu      sync.Mutex
	gate    chan struct{} // nil while writes pass
}

func (s *gatedStore) wait() {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		s.entered <- struct{}{}
		<-gate
	}
}

func (s *gatedStore) Put(ctx context.Context, key string, value []byte) error {
	s.wait()
	return s.DynamoDB.Put(ctx, key, value)
}

func (s *gatedStore) BatchPut(ctx context.Context, items map[string][]byte) error {
	s.wait()
	return s.DynamoDB.BatchPut(ctx, items)
}

// TestParkedCommitDoesNotDelayConn: on a one-conn pool, a commit parked in
// its flush wait holds one server handler; the requests behind it on the
// same conn are served by others, so a Start, a Get and a Put answer while
// the commit is still parked.
func TestParkedCommitDoesNotDelayConn(t *testing.T) {
	checkGoroutineLeak(t)
	store := &gatedStore{DynamoDB: kvengine.NewDynamoDB(kvengine.Options{}), entered: make(chan struct{}, 8)}
	node, err := core.NewNode(core.Config{NodeID: "srv-gate", Store: store, EnableDataCache: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w, _ := node.StartTransaction(ctx)
	node.Put(ctx, w, "k", []byte("v"))
	if _, err := node.CommitTransaction(ctx, w); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(node)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialWith(addr.String(), DialConfig{MaxConns: 1, OpTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	gate := make(chan struct{})
	store.mu.Lock()
	store.gate = gate
	store.mu.Unlock()
	var release sync.Once // also on failure, or Close waits on the parked handler
	open := func() {
		release.Do(func() {
			store.mu.Lock()
			store.gate = nil
			store.mu.Unlock()
			close(gate)
		})
	}
	defer open()

	parked, _ := client.StartTransaction(ctx)
	if err := client.Put(ctx, parked, "x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() {
		_, err := client.CommitTransaction(ctx, parked)
		committed <- err
	}()
	select {
	case <-store.entered: // the commit's flush is parked on the gate
	case <-time.After(5 * time.Second):
		t.Fatal("commit never reached storage")
	}

	served := make(chan error, 1)
	go func() {
		txid, err := client.StartTransaction(ctx)
		if err == nil {
			var v []byte
			if v, err = client.Get(ctx, txid, "k"); err == nil && string(v) != "v" {
				t.Errorf("Get = %q, want v", v)
			}
		}
		if err == nil {
			err = client.Put(ctx, txid, "y", []byte("2"))
		}
		served <- err
	}()
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("requests behind a parked commit waited for it")
	}
	select {
	case err := <-committed:
		t.Fatalf("commit returned while its flush was parked: %v", err)
	default:
	}
	open()
	if err := <-committed; err != nil {
		t.Fatalf("parked commit: %v", err)
	}
}
