package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

// The write buffer is a key-sorted slice inside the transaction. These
// tests hold it to the map it replaced: the value a key reads back, what a
// commit writes, and the record it names, over overwrites, spills, a
// rewrite of a spilled key and a failed spill.

// bufferOf returns a copy of txid's write buffer and its byte count, and
// fails the test unless the buffer is sorted with no key twice and its
// byte count is the sum of its values.
func bufferOf(t *testing.T, n *Node, txid string) []kv {
	t.Helper()
	tx, err := n.lookup(txid)
	if err != nil {
		t.Fatal(err)
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	sum := 0
	for i, it := range tx.writes {
		if i > 0 && tx.writes[i-1].key >= it.key {
			t.Fatalf("write buffer out of order at %d: %q then %q", i, tx.writes[i-1].key, it.key)
		}
		sum += len(it.val)
	}
	if sum != tx.buffered {
		t.Fatalf("buffered = %d, values hold %d bytes", tx.buffered, sum)
	}
	return slices.Clone(tx.writes)
}

// recordOf reads the commit record of id back from store.
func recordOf(t *testing.T, store storage.Store, id idgen.ID) *records.CommitRecord {
	t.Helper()
	payload, err := store.Get(context.Background(), records.CommitKey(id))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := records.UnmarshalCommitRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// checkCommitted reads every key of model in a fresh transaction.
func checkCommitted(t *testing.T, n *Node, model map[string]string) {
	t.Helper()
	ctx := context.Background()
	reader, _ := n.StartTransaction(ctx)
	defer n.AbortTransaction(ctx, reader)
	for k, want := range model {
		if got, err := n.Get(ctx, reader, k); err != nil || string(got) != want {
			t.Fatalf("committed %s = %q, %v; want %q", k, got, err, want)
		}
	}
}

func TestWriteBufferMatchesMapModel(t *testing.T) {
	for _, threshold := range []int{0, 48} { // 48: a spill every few Puts
		for seed := int64(1); seed <= 10; seed++ {
			t.Run(fmt.Sprintf("spill%d/seed%d", threshold, seed), func(t *testing.T) {
				n, store := newTestNode(t, func(c *Config) { c.SpillThreshold = threshold })
				ctx := context.Background()
				rng := rand.New(rand.NewSource(seed))
				txid, _ := n.StartTransaction(ctx)
				model := map[string]string{}
				for op := 0; op < 300; op++ {
					k := fmt.Sprintf("k%02d", rng.Intn(24))
					if rng.Intn(3) == 0 {
						got, err := n.Get(ctx, txid, k)
						if want, ok := model[k]; !ok {
							if !errors.Is(err, ErrKeyNotFound) {
								t.Fatalf("op %d: unwritten %s = %q, %v", op, k, got, err)
							}
						} else if err != nil || string(got) != want {
							t.Fatalf("op %d: read-your-writes %s = %q, %v; want %q", op, k, got, err, want)
						}
						continue
					}
					v := fmt.Sprintf("%s@%d%s", k, op, strings.Repeat(".", rng.Intn(16)))
					if err := n.Put(ctx, txid, k, []byte(v)); err != nil {
						t.Fatal(err)
					}
					model[k] = v
					bufferOf(t, n, txid)
				}
				if threshold > 0 && n.Metrics().Snapshot().Spills == 0 {
					t.Fatal("no Put spilled")
				}
				id, err := n.CommitTransaction(ctx, txid)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]string, 0, len(model))
				for k := range model {
					want = append(want, k)
				}
				slices.Sort(want)
				if got := recordOf(t, store, id).WriteSet; !slices.Equal(got, want) {
					t.Fatalf("record write set %q, want %q", got, want)
				}
				checkCommitted(t, n, model)
			})
		}
	}
}

func TestWriteBufferOverwrite(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "b", []byte("first value"))
	n.Put(ctx, txid, "a", []byte("other"))
	n.Put(ctx, txid, "b", []byte("v2"))
	if got, err := n.Get(ctx, txid, "b"); err != nil || string(got) != "v2" {
		t.Fatalf("read after overwrite = %q, %v; want v2", got, err)
	}
	if buf := bufferOf(t, n, txid); len(buf) != 2 || buf[0].key != "a" || string(buf[1].val) != "v2" {
		t.Fatalf("buffer after overwrite = %q", buf)
	}
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	checkCommitted(t, n, map[string]string{"a": "other", "b": "v2"})
}

func TestWriteBufferSpillThenRewrite(t *testing.T) {
	n, store := newTestNode(t, func(c *Config) { c.SpillThreshold = 10 })
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "k", []byte(strings.Repeat("s", 32))) // spills
	n.Put(ctx, txid, "j", []byte("kept"))
	n.Put(ctx, txid, "k", []byte("final")) // re-buffered over the spill
	if got, err := n.Get(ctx, txid, "k"); err != nil || string(got) != "final" {
		t.Fatalf("read after rewrite of a spilled key = %q, %v; want final", got, err)
	}
	id, err := n.CommitTransaction(ctx, txid)
	if err != nil {
		t.Fatal(err)
	}
	rec := recordOf(t, store, id)
	if !slices.Equal(rec.WriteSet, []string{"j", "k"}) || !slices.Equal(rec.Spilled, []string{"k"}) {
		t.Fatalf("record write set %q, spilled %q", rec.WriteSet, rec.Spilled)
	}
	// The final value went over the spill object, which the record names.
	if v, err := store.Get(ctx, records.SpillKey(rec.SpillDir, "k")); err != nil || string(v) != "final" {
		t.Fatalf("spill object = %q, %v; want final", v, err)
	}
	checkCommitted(t, n, map[string]string{"j": "kept", "k": "final"})
}

// spillGateStore fails spill writes while failing is set; a spill write
// that finds entered non-nil reports itself there and waits for release
// first. entered is buffered for every spill write of the test, so only
// the first one needs a receiver.
type spillGateStore struct {
	storage.Store
	failing atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s *spillGateStore) Put(ctx context.Context, key string, value []byte) error {
	if !strings.HasPrefix(key, records.SpillPrefix) || !s.failing.Load() {
		return s.Store.Put(ctx, key, value)
	}
	if s.entered != nil {
		s.entered <- struct{}{}
		<-s.release
	}
	return errors.New("spillgate: write refused")
}

func TestWriteBufferFailedSpillRestores(t *testing.T) {
	inner := kvengine.NewDynamoDB(kvengine.Options{})
	store := &spillGateStore{Store: inner}
	store.failing.Store(true)
	n, _ := newTestNode(t, func(c *Config) { c.Store = store; c.SpillThreshold = 10 })
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	n.Put(ctx, txid, "a", []byte("small"))
	n.Put(ctx, txid, "b", []byte(strings.Repeat("b", 32))) // spill fails
	if buf := bufferOf(t, n, txid); len(buf) != 2 || string(buf[0].val) != "small" {
		t.Fatalf("buffer after a failed spill = %q", buf)
	}
	if got, err := n.Get(ctx, txid, "b"); err != nil || len(got) != 32 {
		t.Fatalf("read after a failed spill = %q, %v", got, err)
	}

	// A write that lands while the spill is out wins over the restore.
	store.entered, store.release = make(chan struct{}, 3), make(chan struct{})
	done := make(chan error)
	go func() { done <- n.Put(ctx, txid, "c", []byte(strings.Repeat("c", 32))) }()
	<-store.entered // the spill of a, b and c has begun
	if err := n.Put(ctx, txid, "b", []byte("newer")); err != nil {
		t.Fatal(err)
	}
	close(store.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	bufferOf(t, n, txid)
	if got, err := n.Get(ctx, txid, "b"); err != nil || string(got) != "newer" {
		t.Fatalf("read after the restore = %q, %v; want newer", got, err)
	}

	store.failing.Store(false)
	id, err := n.CommitTransaction(ctx, txid)
	if err != nil {
		t.Fatal(err)
	}
	// Every key that went through a spill attempt stays in the spill
	// layout: a failed Put may have landed.
	if rec := recordOf(t, inner, id); !slices.Equal(rec.Spilled, []string{"a", "b", "c"}) {
		t.Fatalf("record spilled %q, want a, b, c", rec.Spilled)
	}
	checkCommitted(t, n, map[string]string{"a": "small", "b": "newer", "c": strings.Repeat("c", 32)})
}

// largeTxnPuts starts a transaction on n and writes keys keys to it in
// random order, each a 16-byte value. It returns the transaction and what
// it wrote.
func largeTxnPuts(t *testing.T, n *Node, keys int) (string, map[string]string) {
	t.Helper()
	ctx := context.Background()
	txid, _ := n.StartTransaction(ctx)
	model := make(map[string]string, keys)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key-%05d", i)
		model[names[i]] = "0123456789abcdef"
	}
	rand.New(rand.NewSource(1)).Shuffle(keys, func(i, j int) { names[i], names[j] = names[j], names[i] })
	val := []byte("0123456789abcdef")
	for _, k := range names {
		if err := n.Put(ctx, txid, k, val); err != nil {
			t.Fatal(err)
		}
	}
	return txid, model
}

// TestWriteBufferLargeTransaction: 2 000 keys written in random order, as
// one transaction. (TestLargeWriteBufferAllocBudget holds what the Puts
// allocate to linear.)
func TestWriteBufferLargeTransaction(t *testing.T) {
	n, store := newTestNode(t)
	txid, model := largeTxnPuts(t, n, 2000)
	if buf := bufferOf(t, n, txid); len(buf) != len(model) {
		t.Fatalf("buffer holds %d keys, want %d", len(buf), len(model))
	}
	id, err := n.CommitTransaction(context.Background(), txid)
	if err != nil {
		t.Fatal(err)
	}
	if ws := recordOf(t, store, id).WriteSet; len(ws) != len(model) || !slices.IsSorted(ws) {
		t.Fatalf("record write set: %d keys, sorted %v", len(ws), slices.IsSorted(ws))
	}
	// A sample: a read of one key checks the record's whole write set
	// against the read set (Algorithm 1), so reading all of them back in
	// one transaction is cubic in the write set.
	sample := map[string]string{}
	for k, v := range model {
		if sample[k] = v; len(sample) == 32 {
			break
		}
	}
	checkCommitted(t, n, sample)
}
