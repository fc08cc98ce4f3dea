package lb

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aft/internal/core"
	"aft/internal/storage/kvengine"
)

func newBackends(t *testing.T, n int) (*kvengine.DynamoDB, []*core.Node) {
	t.Helper()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	nodes := make([]*core.Node, n)
	for i := range nodes {
		node, err := core.NewNode(core.Config{NodeID: fmt.Sprintf("n%d", i), Store: store})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	return store, nodes
}

func TestRoundRobinDistribution(t *testing.T) {
	_, nodes := newBackends(t, 3)
	b := New()
	for _, n := range nodes {
		b.Add(n)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	ctx := context.Background()
	txids := make([]string, 9)
	for i := range txids {
		txid, err := b.StartTransaction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		txids[i] = txid
	}
	for _, n := range nodes {
		if got := n.Metrics().Snapshot().Started; got != 3 {
			t.Fatalf("node %s started %d, want 3 (round robin)", n.ID(), got)
		}
	}
	for _, txid := range txids {
		if err := b.AbortTransaction(ctx, txid); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTransactionAffinity(t *testing.T) {
	// All operations of one transaction must hit the same node (§3.1).
	_, nodes := newBackends(t, 3)
	b := New(nodes[0], nodes[1], nodes[2])
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		txid, err := b.StartTransaction(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Put(ctx, txid, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, err := b.Get(ctx, txid, "k"); err != nil || string(v) != "v" {
			t.Fatalf("RYW through balancer = %q, %v", v, err)
		}
		if _, err := b.CommitTransaction(ctx, txid); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNoBackends(t *testing.T) {
	b := New()
	ctx := context.Background()
	if _, err := b.StartTransaction(ctx); !errors.Is(err, ErrNoBackends) {
		t.Fatalf("Start with no backends = %v", err)
	}
}

func TestUnknownTxn(t *testing.T) {
	_, nodes := newBackends(t, 1)
	b := New(nodes[0])
	ctx := context.Background()
	if _, err := b.Get(ctx, "nope", "k"); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("Get = %v", err)
	}
	if err := b.Put(ctx, "nope", "k", nil); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("Put = %v", err)
	}
	if _, err := b.CommitTransaction(ctx, "nope"); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("Commit = %v", err)
	}
	if err := b.AbortTransaction(ctx, "nope"); !errors.Is(err, ErrUnknownTxn) {
		t.Fatalf("Abort = %v", err)
	}
}

func TestRemoveFailsPinnedTransactions(t *testing.T) {
	_, nodes := newBackends(t, 2)
	b := New(nodes[0], nodes[1])
	ctx := context.Background()
	txid, err := b.StartTransaction(ctx) // lands on nodes[0]
	if err != nil {
		t.Fatal(err)
	}
	b.Remove(nodes[0].ID())
	if b.Len() != 1 {
		t.Fatalf("Len after remove = %d", b.Len())
	}
	// Pinned transaction now errors; client must redo it (§3.3.1).
	if _, err := b.Get(ctx, txid, "k"); !errors.Is(err, ErrUnknownTxn) && !errors.Is(err, ErrBackendGone) {
		t.Fatalf("op after backend removal = %v", err)
	}
	// New transactions route to the survivor.
	txid2, err := b.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CommitTransaction(ctx, txid2); err != nil {
		t.Fatal(err)
	}
	if nodes[1].Metrics().Snapshot().Started != 1 {
		t.Fatal("survivor did not receive new transaction")
	}
}

func TestRemoveUnknownIsNoop(t *testing.T) {
	_, nodes := newBackends(t, 1)
	b := New(nodes[0])
	b.Remove("ghost")
	if b.Len() != 1 {
		t.Fatal("Remove of unknown backend changed the set")
	}
}

func TestAddAfterEmpty(t *testing.T) {
	_, nodes := newBackends(t, 1)
	b := New()
	ctx := context.Background()
	if _, err := b.StartTransaction(ctx); !errors.Is(err, ErrNoBackends) {
		t.Fatal("expected ErrNoBackends")
	}
	b.Add(nodes[0])
	txid, err := b.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
}
