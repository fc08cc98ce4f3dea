package core

// parallel_test.go stresses the striped metadata core and the write
// routine under -race: concurrent commits, reads, multicast merges, and
// GC sweeps on shared keys, checking the §3.2 guarantees hold without the
// old global node lock.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

// TestParallelCommitReadMergeSweep hammers one node with concurrent
// committers, read-atomicity checkers, a multicast merger feeding records
// from a second node, and a metadata sweeper — all on overlapping keys.
// Committers write a two-key pair atomically with identical values; a
// reader observing different pair values would be a fractured read.
func TestParallelCommitReadMergeSweep(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n, err := NewNode(Config{NodeID: "stress", Store: store, EnableDataCache: true})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewNode(Config{NodeID: "peer", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	commitPair := func(node *Node, i int) error {
		txid, err := node.StartTransaction(ctx)
		if err != nil {
			return err
		}
		v := []byte(fmt.Sprintf("v%d", i))
		if err := node.Put(ctx, txid, "pair-a", v); err != nil {
			return err
		}
		if err := node.Put(ctx, txid, "pair-b", v); err != nil {
			return err
		}
		if err := node.Put(ctx, txid, fmt.Sprintf("w-%d", i%32), v); err != nil {
			return err
		}
		_, err = node.CommitTransaction(ctx, txid)
		return err
	}
	// Seed so readers never hit the NULL version.
	if err := commitPair(n, 0); err != nil {
		t.Fatal(err)
	}

	const (
		committers = 4
		readers    = 4
		txnsEach   = 200
	)
	var wg sync.WaitGroup
	var stop atomic.Bool
	errc := make(chan error, committers+readers+2)

	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < txnsEach; i++ {
				if err := commitPair(n, c*txnsEach+i+1); err != nil {
					errc <- fmt.Errorf("committer %d: %w", c, err)
					return
				}
			}
		}(c)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < txnsEach; i++ {
				txid, err := n.StartTransaction(ctx)
				if err != nil {
					errc <- err
					return
				}
				a, err := n.Get(ctx, txid, "pair-a")
				if err != nil {
					errc <- fmt.Errorf("reader %d: pair-a: %w", r, err)
					return
				}
				b, err := n.Get(ctx, txid, "pair-b")
				if err != nil {
					errc <- fmt.Errorf("reader %d: pair-b: %w", r, err)
					return
				}
				if string(a) != string(b) {
					errc <- fmt.Errorf("fractured read: pair-a=%q pair-b=%q", a, b)
					return
				}
				// Repeatable read: re-reading must return the same bytes.
				a2, err := n.Get(ctx, txid, "pair-a")
				if err != nil {
					errc <- err
					return
				}
				if string(a2) != string(a) {
					errc <- fmt.Errorf("non-repeatable read: %q then %q", a, a2)
					return
				}
				if err := n.AbortTransaction(ctx, txid); err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	// Merger: the peer node commits to the same keys; its drained records
	// are merged into n, racing installLocked against local commits.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if err := commitPair(peer, 1000000+i); err != nil {
				errc <- fmt.Errorf("peer: %w", err)
				return
			}
			n.MergeRemoteCommits(peer.Drain())
		}
	}()
	// Sweeper: continuous supersedence sweeps while everything else runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			n.SweepLocalMetadata(64)
		}
	}()

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Committers/readers finish on their own; then stop the loops.
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			if n.Metrics().Snapshot().Committed >= committers*txnsEach {
				stop.Store(true)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-done
	stop.Store(true)
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// The index and record count must still be coherent: every version in
	// every stripe's index resolves to a cached record, and the distinct
	// record count matches the metaCount gauge.
	distinct := n.snapshotRecords()
	if got := n.MetadataSize(); got != len(distinct) {
		t.Fatalf("MetadataSize = %d, distinct records = %d", got, len(distinct))
	}
	for _, s := range n.stripes {
		s.mu.RLock()
		for key := range s.index {
			for _, id := range s.index.atLeast(key, idgen.Null) {
				if _, ok := s.commits[id]; !ok {
					s.mu.RUnlock()
					t.Fatalf("index entry %s@%v has no commit record", key, id)
				}
			}
		}
		s.mu.RUnlock()
	}
}

// TestParallelSameTransaction exercises concurrent operations on ONE
// transaction (a retried function racing its original, §3.3.1): the ops
// serialize on the transaction's own mutex and must not corrupt state.
func TestParallelSameTransaction(t *testing.T) {
	n, err := NewNode(Config{NodeID: "same", Store: kvengine.NewDynamoDB(kvengine.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seed, _ := n.StartTransaction(ctx)
	n.Put(ctx, seed, "k", []byte("base"))
	if _, err := n.CommitTransaction(ctx, seed); err != nil {
		t.Fatal(err)
	}

	txid, _ := n.StartTransaction(ctx)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				n.Put(ctx, txid, fmt.Sprintf("w-%d", i), []byte("x"))
				if _, err := n.Get(ctx, txid, "k"); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	// Idempotent retry after completion.
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatalf("idempotent retry: %v", err)
	}
}

// gateStore wraps a batch-capable store and blocks every write until
// released, so a test can hold a commit inside its flush.
type gateStore struct {
	storage.Store
	once    sync.Once
	release chan struct{}
	blocked chan struct{}
}

func newGateStore(inner storage.Store) *gateStore {
	return &gateStore{Store: inner, release: make(chan struct{}), blocked: make(chan struct{})}
}

func (g *gateStore) wait() {
	g.once.Do(func() { close(g.blocked) })
	<-g.release
}

func (g *gateStore) Put(ctx context.Context, key string, value []byte) error {
	g.wait()
	return g.Store.Put(ctx, key, value)
}

func (g *gateStore) BatchPut(ctx context.Context, items map[string][]byte) error {
	g.wait()
	return g.Store.BatchPut(ctx, items)
}

// TestConcurrentCommitsFlushSideBySide: a commit runs the write routine on
// its own request the moment it commits, so concurrent commits never queue
// behind one another's flush. Sixteen one-key commits on an ordered engine
// are sixteen data Puts that the store holds until all are in flight
// together, then sixteen record Puts likewise: a commit waiting for another
// to finish, or two commits sharing a call, never gathers a phase.
func TestConcurrentCommitsFlushSideBySide(t *testing.T) {
	const commits = 16
	store := newRendezvousStore(storage.Capabilities{BatchWrites: true}, commits, commits)
	n, err := NewNode(Config{NodeID: "side", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < commits; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			txid, err := n.StartTransaction(ctx)
			if err == nil {
				err = n.Put(ctx, txid, fmt.Sprintf("k%d", i), []byte("v"))
			}
			if err == nil {
				_, err = n.CommitTransaction(ctx, txid)
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if m := n.Metrics().Snapshot(); m.GroupFlushes != commits || m.GroupedCommits != commits {
		t.Fatalf("flushes/commits = %d/%d, want %d/%d", m.GroupFlushes, m.GroupedCommits, commits, commits)
	}
	if got := n.MetadataSize(); got != commits {
		t.Fatalf("metadata size = %d, want %d", got, commits)
	}
}

// lossyBatchStore applies the first half of every BatchPut (in key order)
// and then fails the call, and refuses point writes of any key containing
// "lost" — a partial batch whose retry recovers some items and not others.
type lossyBatchStore struct {
	storage.Store
}

func (s lossyBatchStore) BatchPut(ctx context.Context, items map[string][]byte) error {
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys[:len(keys)/2] {
		if err := s.Store.Put(ctx, k, items[k]); err != nil {
			return err
		}
	}
	return errors.New("lossy: batch applied in part")
}

func (s lossyBatchStore) Put(ctx context.Context, key string, value []byte) error {
	if strings.Contains(key, "lost") {
		return errors.New("lossy: write refused")
	}
	return s.Store.Put(ctx, key, value)
}

// commitAll runs one transaction per write set of txns on n, all at once,
// and returns their outcomes in order.
func commitAll(n *Node, txns ...map[string]string) []error {
	errs := make([]error, len(txns))
	var wg sync.WaitGroup
	for i, kvs := range txns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			txid, err := n.StartTransaction(ctx)
			for k, v := range kvs {
				if err == nil {
					err = n.Put(ctx, txid, k, []byte(v))
				}
			}
			if err == nil {
				_, err = n.CommitTransaction(ctx, txid)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	return errs
}

// TestFlushPartialBatchFailsOnlyLosers drives three concurrent commits
// through a store whose BatchPut applies in part: the per-item retry must
// fail only the commit whose item cannot be written, stop at that item so
// neither the loser's later data nor its record is written, and commit the
// other two.
func TestFlushPartialBatchFailsOnlyLosers(t *testing.T) {
	inner := kvengine.NewDynamoDB(kvengine.Options{})
	n, err := NewNode(Config{NodeID: "lossy", Store: lossyBatchStore{inner}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// b's data is written in key order, b-lost first.
	a, b, c := twoPhase("a"), twoPhase("b"), twoPhase("c")
	txns := []map[string]string{{"a1": a, "a2": a}, {"b1": b, "b-lost": b, "b3": b}, {"c1": c}}
	errs := commitAll(n, txns...)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("winners failed: a=%v c=%v", errs[0], errs[2])
	}
	requireReads(t, n, txns[0])
	requireReads(t, n, txns[2])
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "aft: persisting write set") {
		t.Fatalf("loser's error = %v, want a write-set failure", errs[1])
	}
	if recs, err := inner.List(ctx, records.CommitPrefix); err != nil || len(recs) != 2 {
		t.Fatalf("commit records = %q, %v; want the 2 winners'", recs, err)
	}
	for _, k := range []string{"b1", "b3"} {
		if vs, err := inner.List(ctx, records.DataPrefix+k+"/"); err != nil || len(vs) != 0 {
			t.Fatalf("loser's %s after the lost item was written: %q, %v", k, vs, err)
		}
	}
	if got := n.MetadataSize(); got != 2 {
		t.Fatalf("installed records = %d, want the 2 winners", got)
	}
	if got := len(n.Drain()); got != 2 {
		t.Fatalf("announced records = %d, want 2", got)
	}
}

// TestGroupCommitFailurePropagates pins the error path: when storage fails
// under a commit's flush, the commit sees the failure, no record is
// installed, and the transaction stays live for retry.
func TestGroupCommitFailurePropagates(t *testing.T) {
	inner := kvengine.NewDynamoDB(kvengine.Options{})
	gate := newGateStore(inner)
	n, err := NewNode(Config{NodeID: "gcfail", Store: gate})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	txid, _ := n.StartTransaction(ctx)
	if err := n.Put(ctx, txid, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := n.CommitTransaction(ctx, txid)
		done <- err
	}()
	<-gate.blocked
	inner.SetAvailable(false)
	close(gate.release)
	if err := <-done; err == nil {
		t.Fatal("commit succeeded against unavailable storage")
	}
	if n.MetadataSize() != 0 {
		t.Fatal("failed commit was installed")
	}
	if n.ActiveTransactions() != 1 {
		t.Fatal("failed commit retired the transaction")
	}
	// Storage heals; the retry must succeed with the same UUID.
	inner.SetAvailable(true)
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatalf("retry after storage recovery: %v", err)
	}
	if n.MetadataSize() != 1 {
		t.Fatal("retried commit not installed")
	}
}

// TestDuplicateCommitWaitsForOriginal pins the commit claim: a retried
// CommitTransaction racing the in-flight original must return the SAME
// commit ID (§3.1 idempotency), never mint a second record.
func TestDuplicateCommitWaitsForOriginal(t *testing.T) {
	inner := kvengine.NewDynamoDB(kvengine.Options{})
	gate := newGateStore(inner)
	n, err := NewNode(Config{NodeID: "dup", Store: gate})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "k", []byte("v"))

	type result struct {
		id  idgen.ID
		err error
	}
	results := make(chan result, 2)
	go func() {
		id, err := n.CommitTransaction(ctx, txid)
		results <- result{id, err}
	}()
	<-gate.blocked
	go func() {
		id, err := n.CommitTransaction(ctx, txid)
		results <- result{id, err}
	}()
	time.Sleep(10 * time.Millisecond) // let the duplicate reach the claim wait
	close(gate.release)
	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatalf("commit errors: %v, %v", a.err, b.err)
	}
	if !a.id.Equal(b.id) {
		t.Fatalf("duplicate commit minted a second ID: %v vs %v", a.id, b.id)
	}
	if got := n.MetadataSize(); got != 1 {
		t.Fatalf("metadata size = %d, want 1 (one commit record)", got)
	}
}

// TestAbortWaitsForInflightCommit pins the other side of the claim: an
// abort racing an in-flight commit observes its outcome (ErrTxnFinished
// on success) instead of tearing down state the commit references.
func TestAbortWaitsForInflightCommit(t *testing.T) {
	inner := kvengine.NewDynamoDB(kvengine.Options{})
	gate := newGateStore(inner)
	n, err := NewNode(Config{NodeID: "abortrace", Store: gate})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "k", []byte("v"))

	commitDone := make(chan error, 1)
	go func() {
		_, err := n.CommitTransaction(ctx, txid)
		commitDone <- err
	}()
	<-gate.blocked
	abortDone := make(chan error, 1)
	go func() { abortDone <- n.AbortTransaction(ctx, txid) }()
	time.Sleep(10 * time.Millisecond)
	close(gate.release)
	if err := <-commitDone; err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := <-abortDone; err != ErrTxnFinished {
		t.Fatalf("abort racing successful commit = %v, want ErrTxnFinished", err)
	}
	if n.MetadataSize() != 1 {
		t.Fatal("committed record missing after racing abort")
	}
}

// TestPutWaitsForInflightCommit pins the claim from a Put's side: a Put
// racing its own transaction's in-flight commit waits for the outcome. The
// attempt has already fixed what it writes, so after a success the Put
// reports ErrTxnFinished rather than being acknowledged and lost; after a
// failure it joins the buffer, and the retry commits it.
func TestPutWaitsForInflightCommit(t *testing.T) {
	for _, commitFails := range []bool{false, true} {
		t.Run(fmt.Sprintf("commitFails=%v", commitFails), func(t *testing.T) {
			inner := kvengine.NewDynamoDB(kvengine.Options{})
			gate := newGateStore(inner)
			n, err := NewNode(Config{NodeID: "putrace", Store: gate})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			txid, _ := n.StartTransaction(ctx)
			if err := n.Put(ctx, txid, "k1", []byte("v1")); err != nil {
				t.Fatal(err)
			}

			commitDone := make(chan error, 1)
			go func() {
				_, err := n.CommitTransaction(ctx, txid)
				commitDone <- err
			}()
			<-gate.blocked
			putDone := make(chan error, 1)
			go func() { putDone <- n.Put(ctx, txid, "k2", []byte("v2")) }()
			time.Sleep(10 * time.Millisecond) // let the Put reach the claim wait
			select {
			case err := <-putDone:
				t.Fatalf("Put returned %v while the commit was in flight", err)
			default:
			}
			if commitFails {
				inner.SetAvailable(false)
			}
			close(gate.release)
			commitErr, putErr := <-commitDone, <-putDone

			if commitFails {
				if commitErr == nil {
					t.Fatal("commit succeeded against unavailable storage")
				}
				if putErr != nil {
					t.Fatalf("Put after a failed attempt = %v, want nil", putErr)
				}
				inner.SetAvailable(true)
				if _, err := n.CommitTransaction(ctx, txid); err != nil {
					t.Fatalf("retry: %v", err)
				}
			} else {
				if commitErr != nil {
					t.Fatalf("commit: %v", commitErr)
				}
				if putErr != ErrTxnFinished {
					t.Fatalf("Put racing a successful commit = %v, want ErrTxnFinished", putErr)
				}
			}

			reader, _ := n.StartTransaction(ctx)
			defer n.AbortTransaction(ctx, reader)
			if v, err := n.Get(ctx, reader, "k1"); err != nil || string(v) != "v1" {
				t.Fatalf("Get(k1) = %q, %v", v, err)
			}
			v, err := n.Get(ctx, reader, "k2")
			switch {
			case commitFails && (err != nil || string(v) != "v2"):
				t.Fatalf("Get(k2) after the retry = %q, %v; want the raced write", v, err)
			case !commitFails && !errors.Is(err, ErrKeyNotFound):
				t.Fatalf("Get(k2) = %q, %v; want ErrKeyNotFound", v, err)
			}
		})
	}
}

// TestSweepKeepsPinnedAcrossStripes pins the §5.1 guarantee under striping:
// a record spanning several stripes stays cached while any reader pins it,
// even when its versions are superseded on every stripe.
func TestSweepKeepsPinnedAcrossStripes(t *testing.T) {
	n, err := NewNode(Config{NodeID: "pin", Store: kvengine.NewDynamoDB(kvengine.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keys := []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}
	commit := func(val string) idgen.ID {
		txid, _ := n.StartTransaction(ctx)
		for _, k := range keys {
			n.Put(ctx, txid, k, []byte(val))
		}
		id, err := n.CommitTransaction(ctx, txid)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	old := commit("old")
	reader, _ := n.StartTransaction(ctx)
	if _, err := n.Get(ctx, reader, "p0"); err != nil {
		t.Fatal(err)
	}
	commit("new") // supersedes old on every key
	if removed := n.SweepLocalMetadata(0); len(removed) != 0 {
		t.Fatalf("sweep removed pinned record: %v", removed)
	}
	// The pinned reader still resolves its exact version.
	if v, err := n.Get(ctx, reader, "p0"); err != nil || string(v) != "old" {
		t.Fatalf("pinned read = %q, %v", v, err)
	}
	if err := n.AbortTransaction(ctx, reader); err != nil {
		t.Fatal(err)
	}
	removed := n.SweepLocalMetadata(0)
	found := false
	for _, id := range removed {
		if id.Equal(old) {
			found = true
		}
	}
	if !found {
		t.Fatalf("unpinned superseded record not swept: %v", removed)
	}
}
