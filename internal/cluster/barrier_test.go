package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"aft/internal/core"
	"aft/internal/idgen"
)

// TestFlushMulticastIsVisibilityBarrier: once FlushMulticast returns, a
// fresh transaction on every node reads a key at a version no older than
// any commit of it acknowledged before the call — while the periodic round
// runs every millisecond and every node keeps committing the same keys, so
// rounds, §4.1 sender pruning and merges interleave with the barrier.
func TestFlushMulticastIsVisibilityBarrier(t *testing.T) {
	iterations := 1000
	if testing.Short() {
		iterations = 200
	}
	c, _ := newTestCluster(t, func(cfg *Config) { cfg.MulticastPeriod = time.Millisecond })
	nodes := c.Nodes()
	keys := []string{"b0", "b1", "b2", "b3"}
	ctx := context.Background()

	commit := func(n *core.Node, key, val string) (idgen.ID, error) {
		txid, err := n.StartTransaction(ctx)
		if err != nil {
			return idgen.Null, err
		}
		if err := n.Put(ctx, txid, key, []byte(val)); err != nil {
			return idgen.Null, err
		}
		return n.CommitTransaction(ctx, txid)
	}

	// Each iteration releases every node's committer for a short burst
	// that overlaps the acknowledged commit and the barrier behind it, so
	// history stays small enough to run the loop a thousand times.
	const burst = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(nodes))
	gos := make([]chan struct{}, len(nodes))
	for w, n := range nodes {
		gos[w] = make(chan struct{}, 1)
		wg.Add(1)
		go func(w int, n *core.Node, round <-chan struct{}) {
			defer wg.Done()
			i := 0
			for range round {
				for b := 0; b < burst; b++ {
					i++
					if _, err := commit(n, keys[(w+i)%len(keys)], fmt.Sprintf("bg%d-%d", w, i)); err != nil {
						errs <- fmt.Errorf("background committer on %s: %w", n.ID(), err)
						return
					}
				}
			}
		}(w, n, gos[w])
	}
	defer func() {
		for _, g := range gos {
			close(g)
		}
		wg.Wait()
	}()

	for i := 0; i < iterations; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		for _, g := range gos {
			select {
			case g <- struct{}{}:
			default: // still in its last burst
			}
		}
		key := keys[i%len(keys)]
		acked, err := commit(nodes[i%len(nodes)], key, fmt.Sprintf("fg-%d", i))
		if err != nil {
			t.Fatalf("iteration %d: commit: %v", i, err)
		}
		c.FlushMulticast()
		for _, n := range nodes {
			txid, err := n.StartTransaction(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := n.Get(ctx, txid, key); err != nil {
				t.Fatalf("iteration %d: %s reads %s: %v", i, n.ID(), key, err)
			}
			rs, err := n.ReadSet(txid)
			if err != nil {
				t.Fatal(err)
			}
			if got := rs[key]; got.Less(acked) {
				t.Fatalf("iteration %d: after FlushMulticast %s reads %s at %v, older than the acknowledged %v",
					i, n.ID(), key, got, acked)
			}
			if err := n.AbortTransaction(ctx, txid); err != nil {
				t.Fatal(err)
			}
		}
	}
}
