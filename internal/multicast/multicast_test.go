package multicast

import (
	"context"
	"sync"
	"testing"
	"time"

	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage/kvengine"
)

func newNode(t *testing.T, store *kvengine.DynamoDB, id string) *core.Node {
	t.Helper()
	n, err := core.NewNode(core.Config{NodeID: id, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func commit(t *testing.T, n *core.Node, kvs map[string]string) idgen.ID {
	t.Helper()
	ctx := context.Background()
	txid, err := n.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range kvs {
		if err := n.Put(ctx, txid, k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	id, err := n.CommitTransaction(ctx, txid)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestFlushDeliversToPeers(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1, n2 := newNode(t, store, "n1"), newNode(t, store, "n2")
	bus := NewBus()
	bus.Register(n1)
	bus.Register(n2)

	commit(t, n1, map[string]string{"k": "v"})
	bus.FlushPeer(n1, true)

	ctx := context.Background()
	txid, _ := n2.StartTransaction(ctx)
	v, err := n2.Get(ctx, txid, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("peer read after flush = %q, %v", v, err)
	}
}

func TestFlushDoesNotEchoToSender(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1 := newNode(t, store, "n1")
	bus := NewBus()
	bus.Register(n1)
	commit(t, n1, map[string]string{"k": "v"})
	if sent := bus.FlushPeer(n1, true); sent != 1 {
		t.Fatalf("sent = %d", sent)
	}
	if n1.Metrics().Snapshot().MergedRemote != 0 {
		t.Fatal("sender merged its own broadcast")
	}
}

func TestPruningSuppressesSuperseded(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1, n2 := newNode(t, store, "n1"), newNode(t, store, "n2")
	bus := NewBus()
	bus.Register(n1)
	bus.Register(n2)

	// Two versions of the same key before any flush: the older one is
	// locally superseded and must be pruned (§4.1).
	commit(t, n1, map[string]string{"k": "v1"})
	commit(t, n1, map[string]string{"k": "v2"})
	sent := bus.FlushPeer(n1, true)
	if sent != 1 {
		t.Fatalf("sent = %d records, want 1 (older pruned)", sent)
	}
	m := bus.Metrics().Snapshot()
	if m.Pruned != 1 || m.Broadcast != 1 {
		t.Fatalf("bus metrics = %+v", m)
	}
	// The peer still reads the latest value.
	ctx := context.Background()
	txid, _ := n2.StartTransaction(ctx)
	v, err := n2.Get(ctx, txid, "k")
	if err != nil || string(v) != "v2" {
		t.Fatalf("peer read = %q, %v", v, err)
	}
}

func TestNoPruningSendsEverything(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1, n2 := newNode(t, store, "n1"), newNode(t, store, "n2")
	bus := NewBus()
	bus.Register(n1)
	bus.Register(n2)
	commit(t, n1, map[string]string{"k": "v1"})
	commit(t, n1, map[string]string{"k": "v2"})
	if sent := bus.FlushPeer(n1, false); sent != 2 {
		t.Fatalf("unpruned sent = %d, want 2", sent)
	}
}

func TestTapReceivesUnprunedStream(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1 := newNode(t, store, "n1")
	bus := NewBus()
	bus.Register(n1)
	var mu sync.Mutex
	var tapped []*records.CommitRecord
	bus.Tap(func(from string, recs []*records.CommitRecord) {
		mu.Lock()
		tapped = append(tapped, recs...)
		mu.Unlock()
		if from != "n1" {
			t.Errorf("tap from = %q", from)
		}
	})
	commit(t, n1, map[string]string{"k": "v1"})
	commit(t, n1, map[string]string{"k": "v2"})
	bus.FlushPeer(n1, true)
	mu.Lock()
	defer mu.Unlock()
	if len(tapped) != 2 {
		t.Fatalf("tap received %d records, want 2 (never pruned, §4.2)", len(tapped))
	}
}

func TestMulticasterPeriodicLoop(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1, n2 := newNode(t, store, "n1"), newNode(t, store, "n2")
	bus := NewBus()
	bus.Register(n2)
	mc := NewMulticaster(bus, n1, 5*time.Millisecond, true)
	mc.Start()
	mc.Start() // idempotent
	defer mc.Stop()

	commit(t, n1, map[string]string{"k": "v"})
	deadline := time.After(2 * time.Second)
	for {
		if n2.MetadataSize() == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("peer never learned the commit")
		case <-time.After(time.Millisecond):
		}
	}
}

func TestMulticasterStopFlushes(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1, n2 := newNode(t, store, "n1"), newNode(t, store, "n2")
	bus := NewBus()
	bus.Register(n2)
	mc := NewMulticaster(bus, n1, time.Hour, true) // never ticks
	mc.Start()
	commit(t, n1, map[string]string{"k": "v"})
	mc.Stop() // final flush on stop
	if n2.MetadataSize() != 1 {
		t.Fatal("Stop did not flush pending commits")
	}
	if got := bus.Peers(); len(got) != 1 || got[0] != "n2" {
		t.Fatalf("peers after stop = %v", got)
	}
	mc.Stop() // idempotent
}

func TestMulticasterKillDropsPending(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1, n2 := newNode(t, store, "n1"), newNode(t, store, "n2")
	bus := NewBus()
	bus.Register(n2)
	mc := NewMulticaster(bus, n1, time.Hour, true)
	mc.Start()
	commit(t, n1, map[string]string{"k": "v"})
	mc.Kill() // crash: no flush
	if n2.MetadataSize() != 0 {
		t.Fatal("Kill flushed pending commits; it must simulate a crash")
	}
}

func TestFlushEmptyIsNoop(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1 := newNode(t, store, "n1")
	bus := NewBus()
	bus.Register(n1)
	if sent := bus.FlushPeer(n1, true); sent != 0 {
		t.Fatalf("empty flush sent %d", sent)
	}
	if bus.Metrics().Snapshot().Rounds != 0 {
		t.Fatal("empty flush counted as a round")
	}
}

func TestDefaultPeriod(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n1 := newNode(t, store, "n1")
	mc := NewMulticaster(NewBus(), n1, 0, true)
	if mc.period != time.Second {
		t.Fatalf("default period = %v, want 1s (the paper's setting)", mc.period)
	}
}
