package faas

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aft/internal/core"
	"aft/internal/lb"
	"aft/internal/storage/kvengine"
)

func newPlatform(t *testing.T, mutate ...func(*Config)) (*Platform, *core.Node) {
	t.Helper()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	node, err := core.NewNode(core.Config{NodeID: "n1", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Client: node}
	for _, m := range mutate {
		m(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, node
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing client accepted")
	}
}

func TestInvokeChainCommitsOnce(t *testing.T) {
	p, node := newPlatform(t)
	ctx := context.Background()
	id, err := p.Invoke(ctx,
		func(fc *Ctx) error { return fc.Put("a", []byte("1")) },
		func(fc *Ctx) error { return fc.Put("b", []byte("2")) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if id.IsNull() {
		t.Fatal("null commit ID")
	}
	m := node.Metrics().Snapshot()
	if m.Committed != 1 || m.Started != 1 {
		t.Fatalf("node metrics = %+v", m)
	}
	pm := p.Metrics().Snapshot()
	if pm.Invocations != 2 || pm.Commits != 1 {
		t.Fatalf("platform metrics = %+v", pm)
	}
}

func TestChainSharesTransaction(t *testing.T) {
	p, _ := newPlatform(t)
	ctx := context.Background()
	var tx1, tx2 string
	_, err := p.Invoke(ctx,
		func(fc *Ctx) error {
			tx1 = fc.TxID()
			if fc.Slot() != 0 {
				t.Errorf("slot = %d", fc.Slot())
			}
			return fc.Put("k", []byte("v"))
		},
		func(fc *Ctx) error {
			tx2 = fc.TxID()
			if fc.Slot() != 1 {
				t.Errorf("slot = %d", fc.Slot())
			}
			// Read-your-writes across functions of the same request.
			v, err := fc.Get("k")
			if err != nil || string(v) != "v" {
				t.Errorf("cross-function RYW = %q, %v", v, err)
			}
			return nil
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if tx1 == "" || tx1 != tx2 {
		t.Fatalf("functions saw different transactions: %q vs %q", tx1, tx2)
	}
}

func TestFunctionErrorAbortsRequest(t *testing.T) {
	p, node := newPlatform(t)
	ctx := context.Background()
	boom := errors.New("boom")
	_, err := p.Invoke(ctx,
		func(fc *Ctx) error { return fc.Put("k", []byte("v")) },
		func(fc *Ctx) error { return boom },
	)
	if !errors.Is(err, boom) {
		t.Fatalf("Invoke = %v", err)
	}
	m := node.Metrics().Snapshot()
	if m.Aborted != 1 || m.Committed != 0 {
		t.Fatalf("node metrics = %+v", m)
	}
	// Nothing visible.
	txid, _ := node.StartTransaction(ctx)
	if _, err := node.Get(ctx, txid, "k"); !errors.Is(err, core.ErrKeyNotFound) {
		t.Fatalf("aborted write visible: %v", err)
	}
}

func TestCrashInjectionRetriesSameTxn(t *testing.T) {
	p, node := newPlatform(t, func(c *Config) {
		c.CrashRate = 1.0 // first attempt always crashes
		c.MaxFunctionRetries = 10
		c.Seed = 42
	})
	// With CrashRate 1.0 every attempt crashes; expect retries exhausted.
	ctx := context.Background()
	_, err := p.Invoke(ctx, func(fc *Ctx) error {
		return fc.Put("k", []byte("v"))
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("Invoke with certain crashes = %v", err)
	}
	if p.Metrics().Snapshot().Crashes == 0 {
		t.Fatal("no crashes recorded")
	}
	_ = node
}

func TestCrashThenSuccessIsExactlyOnce(t *testing.T) {
	// A function that crashes on its first attempt and succeeds on retry
	// must produce exactly one committed transaction with the full write
	// set — the §3.3.1 exactly-once story.
	p, node := newPlatform(t)
	ctx := context.Background()
	attempts := 0
	id, err := p.Invoke(ctx,
		func(fc *Ctx) error {
			if err := fc.Put("a", []byte("1")); err != nil {
				return err
			}
			attempts++
			if attempts == 1 {
				return ErrInjectedCrash // die after the first write
			}
			return fc.Put("b", []byte("2"))
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d", attempts)
	}
	// Both writes visible exactly once, atomically.
	txid, _ := node.StartTransaction(ctx)
	va, err1 := node.Get(ctx, txid, "a")
	vb, err2 := node.Get(ctx, txid, "b")
	if err1 != nil || err2 != nil || string(va) != "1" || string(vb) != "2" {
		t.Fatalf("reads = %q,%v / %q,%v", va, err1, vb, err2)
	}
	if node.Metrics().Snapshot().Committed != 1 {
		t.Fatalf("committed = %d", node.Metrics().Snapshot().Committed)
	}
	if id.IsNull() {
		t.Fatal("null id")
	}
}

func TestNoValidVersionRetriesWholeRequest(t *testing.T) {
	// Force the §3.6 abort case: the request reads l1, a concurrent commit
	// creates {k2,l2}, and the request then reads k. On retry, a fresh
	// transaction sees consistent data and succeeds.
	store := kvengine.NewDynamoDB(kvengine.Options{})
	node, _ := core.NewNode(core.Config{NodeID: "n1", Store: store})
	ctx := context.Background()

	seed := func(kvs map[string]string) {
		txid, _ := node.StartTransaction(ctx)
		for k, v := range kvs {
			node.Put(ctx, txid, k, []byte(v))
		}
		if _, err := node.CommitTransaction(ctx, txid); err != nil {
			t.Fatal(err)
		}
	}
	seed(map[string]string{"l": "l1"})

	p, err := New(Config{Client: node})
	if err != nil {
		t.Fatal(err)
	}
	interfered := false
	id, err := p.Invoke(ctx,
		func(fc *Ctx) error {
			if _, err := fc.Get("l"); err != nil {
				return err
			}
			if !interfered && fc.Attempt() == 0 {
				interfered = true
				seed(map[string]string{"k": "k2", "l": "l2"})
			}
			_, err := fc.Get("k")
			return err
		},
	)
	if err != nil {
		t.Fatalf("Invoke = %v (request retry should recover)", err)
	}
	if id.IsNull() {
		t.Fatal("null id")
	}
	if p.Metrics().Snapshot().RequestRetries != 1 {
		t.Fatalf("request retries = %d, want 1", p.Metrics().Snapshot().RequestRetries)
	}
}

func TestBackendGoneRetriesThroughBalancer(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1, _ := core.NewNode(core.Config{NodeID: "n1", Store: store})
	n2, _ := core.NewNode(core.Config{NodeID: "n2", Store: store})
	bal := lb.New(n1, n2)
	p, err := New(Config{Client: bal})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	killed := false
	id, err := p.Invoke(ctx, func(fc *Ctx) error {
		if err := fc.Put("k", []byte("v")); err != nil {
			return err
		}
		if !killed {
			killed = true
			// The node owning this transaction disappears mid-request.
			bal.Remove(n1.ID())
		}
		_, err := fc.Get("k")
		return err
	})
	if err != nil {
		t.Fatalf("Invoke across node failure = %v", err)
	}
	if id.IsNull() {
		t.Fatal("null id")
	}
	if p.Metrics().Snapshot().RequestRetries == 0 {
		t.Fatal("no request retry recorded")
	}
}

func TestManyRequestsThroughPlatform(t *testing.T) {
	p, node := newPlatform(t)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%d", i%7)
		_, err := p.Invoke(ctx,
			func(fc *Ctx) error { return fc.Put(k, []byte{byte(i)}) },
			func(fc *Ctx) error { _, err := fc.Get(k); return err },
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	if node.Metrics().Snapshot().Committed != 50 {
		t.Fatalf("committed = %d", node.Metrics().Snapshot().Committed)
	}
}

func TestCtxAccessors(t *testing.T) {
	p, _ := newPlatform(t)
	ctx := context.Background()
	_, err := p.Invoke(ctx, func(fc *Ctx) error {
		if fc.Context() != ctx {
			t.Error("context not propagated")
		}
		if fc.Attempt() != 0 {
			t.Error("attempt != 0")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
