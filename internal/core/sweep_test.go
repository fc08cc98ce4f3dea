package core

// sweep_test.go pins what the local sweep may retire while transactions
// are live (Node.sweepHorizon, retirableLocked): a superseded version stays
// while a live transaction may still need it, and a transaction presumed
// abandoned stops holding it.

import (
	"context"
	"errors"
	"testing"
	"time"

	"aft/internal/idgen"
	"aft/internal/storage/kvengine"
)

// abandonForSweep backdates transaction txid's start past maxSweepHold, so
// the sweep presumes it abandoned.
func abandonForSweep(t *testing.T, n *Node, txid string) {
	t.Helper()
	tx, err := n.lookup(txid)
	if err != nil {
		t.Fatal(err)
	}
	tx.startedAt = time.Now().Add(-maxSweepHold - time.Second).UnixNano()
}

// sweepScenario installs a@v1 and b@v0, starts T, has T read a@v1, then
// commits {a, b}@v2. b@v0 is superseded by v2, but v2 cowrote a, which T
// read at an older version, so v2 is invalid for T (Algorithm 1) and b@v0
// is the only version of b T can read. It returns T and b@v0's ID.
func sweepScenario(t *testing.T, n *Node) (string, idgen.ID) {
	t.Helper()
	ctx := context.Background()
	b0 := commitTxn(t, n, map[string]string{"b": "b0"})
	commitTxn(t, n, map[string]string{"a": "a1"})
	txid, err := n.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := n.Get(ctx, txid, "a"); err != nil || string(v) != "a1" {
		t.Fatalf("Get(a) = %q, %v", v, err)
	}
	commitTxn(t, n, map[string]string{"a": "a2", "b": "b2"})
	return txid, b0
}

// TestSweepKeepsVersionsALiveTransactionNeeds: the sweep must not retire
// b@v0 while T, which started before v2 was installed, is live. Retiring
// it left T no valid version of b (ErrNoValidVersion). Once T finishes,
// the next sweep retires it.
func TestSweepKeepsVersionsALiveTransactionNeeds(t *testing.T) {
	n, err := NewNode(Config{NodeID: "sweep", Store: kvengine.NewDynamoDB(kvengine.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	txid, b0 := sweepScenario(t, n)
	for _, id := range n.SweepLocalMetadata(0) {
		if id.Equal(b0) {
			t.Fatal("the sweep retired b@v0 while a live transaction needs it")
		}
	}
	if v, err := n.Get(ctx, txid, "b"); err != nil || string(v) != "b0" {
		t.Fatalf("Get(b) = %q, %v; want b0", v, err)
	}
	if err := n.AbortTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	var swept bool
	for _, id := range n.SweepLocalMetadata(0) {
		swept = swept || id.Equal(b0)
	}
	if !swept {
		t.Fatal("b@v0 outlived every transaction that could need it")
	}

	// A transaction that starts after v2 is installed sees v2 from its
	// start, so it does not hold the sweep back.
	commitTxn(t, n, map[string]string{"a": "a3", "b": "b3"})
	late, _ := n.StartTransaction(ctx)
	defer n.AbortTransaction(ctx, late)
	if removed := n.SweepLocalMetadata(0); len(removed) != 1 {
		t.Fatalf("sweep with only a later transaction live removed %v, want v2", removed)
	}
}

// TestSweepIgnoresAbandonedTransactions: a transaction with no lease holds
// the sweep back for maxSweepHold, one with a lease until the lease passes
// (however old it is). Past either, the sweep retires b@v0 and the
// transaction, if it comes back, finds no valid version of b and aborts
// (§3.6).
func TestSweepIgnoresAbandonedTransactions(t *testing.T) {
	for _, c := range []struct {
		name    string
		old     bool          // started more than maxSweepHold ago
		lease   time.Duration // the lease's distance from now; 0: none
		retired bool
	}{
		{"no lease", true, 0, true},
		{"lease passed", false, -time.Millisecond, true},
		{"lease live", true, time.Hour, false},
	} {
		n, err := NewNode(Config{NodeID: "sweep", Store: kvengine.NewDynamoDB(kvengine.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		txid, b0 := sweepScenario(t, n)
		if c.old {
			abandonForSweep(t, n, txid)
		}
		if c.lease != 0 {
			tx, _ := n.lookup(txid)
			tx.deadline.Store(time.Now().Add(c.lease).UnixNano())
		}
		var retired bool
		for _, id := range n.SweepLocalMetadata(0) {
			retired = retired || id.Equal(b0)
		}
		_, err = n.Get(context.Background(), txid, "b")
		if retired != c.retired || errors.Is(err, ErrNoValidVersion) != c.retired {
			t.Fatalf("%s: b@v0 retired = %v, Get(b) = %v; want retired = %v", c.name, retired, err, c.retired)
		}
	}
}
