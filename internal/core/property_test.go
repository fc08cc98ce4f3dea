package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"aft/internal/idgen"
	"aft/internal/storage/kvengine"
)

// checkAtomicReadset verifies Definition 1 against a log of committed write
// sets: for every ki in R and every key l cowritten with ki, if R contains
// a version lj then j >= i.
func checkAtomicReadset(t *testing.T, readSet map[string]idgen.ID, writeSets map[idgen.ID][]string) {
	t.Helper()
	for _, ki := range readSet {
		cowritten, ok := writeSets[ki]
		if !ok {
			t.Fatalf("read version %v has no committed write set (dirty read)", ki)
		}
		for _, l := range cowritten {
			if lj, ok := readSet[l]; ok && lj.Less(ki) {
				t.Fatalf("fractured read: read %v of key %q but cowritten txn %v is newer", lj, l, ki)
			}
		}
	}
}

// TestPropertyAtomicReadsetSingleThreaded drives Algorithm 1 with random
// committed histories and random read orders, then verifies Definition 1.
func TestPropertyAtomicReadsetSingleThreaded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, _ := newTestNode(t)
		ctx := context.Background()
		keys := []string{"a", "b", "c", "d", "e"}
		writeSets := map[idgen.ID][]string{}

		// Random committed history: 12 transactions with random write sets.
		for i := 0; i < 12; i++ {
			kvs := map[string]string{}
			for _, k := range keys {
				if rng.Intn(2) == 0 {
					kvs[k] = fmt.Sprintf("t%d", i)
				}
			}
			if len(kvs) == 0 {
				kvs[keys[rng.Intn(len(keys))]] = fmt.Sprintf("t%d", i)
			}
			id := commitTxn(t, n, kvs)
			ws := make([]string, 0, len(kvs))
			for k := range kvs {
				ws = append(ws, k)
			}
			writeSets[id] = ws
		}

		// Random read order, reading some keys multiple times.
		txid, _ := n.StartTransaction(ctx)
		for i := 0; i < 10; i++ {
			k := keys[rng.Intn(len(keys))]
			if _, err := n.Get(ctx, txid, k); err != nil &&
				!errors.Is(err, ErrKeyNotFound) && !errors.Is(err, ErrNoValidVersion) {
				t.Fatalf("Get(%s) = %v", k, err)
			}
		}
		rs, err := n.ReadSet(txid)
		if err != nil {
			t.Fatal(err)
		}
		checkAtomicReadset(t, rs, writeSets)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyConcurrentHistories runs writers and readers concurrently and
// verifies every reader's final read set is an Atomic Readset, values match
// their versions, and no dirty or torn data is ever observed.
func TestPropertyConcurrentHistories(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n, err := NewNode(Config{NodeID: "prop", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keys := []string{"k0", "k1", "k2", "k3"}

	var logMu sync.Mutex
	writeSets := map[idgen.ID][]string{}

	var wg sync.WaitGroup
	// Writers: each commits transactions writing 2-4 keys with values
	// identifying the writing transaction.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				txid, err := n.StartTransaction(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				count := 2 + rng.Intn(3)
				ws := map[string]bool{}
				for len(ws) < count {
					ws[keys[rng.Intn(len(keys))]] = true
				}
				for k := range ws {
					// The value embeds the txid so readers can verify
					// value/version agreement.
					if err := n.Put(ctx, txid, k, []byte(k+"="+txid)); err != nil {
						t.Error(err)
						return
					}
				}
				id, err := n.CommitTransaction(ctx, txid)
				if err != nil {
					t.Error(err)
					return
				}
				wsList := make([]string, 0, len(ws))
				for k := range ws {
					wsList = append(wsList, k)
				}
				logMu.Lock()
				writeSets[id] = wsList
				logMu.Unlock()
			}
		}(w)
	}

	type readerResult struct {
		readSet map[string]idgen.ID
		values  map[string]string
	}
	results := make(chan readerResult, 200)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 50; i++ {
				txid, err := n.StartTransaction(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				values := map[string]string{}
				for j := 0; j < 5; j++ {
					k := keys[rng.Intn(len(keys))]
					v, err := n.Get(ctx, txid, k)
					if err != nil {
						if errors.Is(err, ErrKeyNotFound) || errors.Is(err, ErrNoValidVersion) {
							continue
						}
						t.Errorf("Get = %v", err)
						return
					}
					values[k] = string(v)
				}
				rs, err := n.ReadSet(txid)
				if err != nil {
					t.Error(err)
					return
				}
				results <- readerResult{readSet: rs, values: values}
				if err := n.AbortTransaction(ctx, txid); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(results)

	for res := range results {
		checkAtomicReadset(t, res.readSet, writeSets)
		// Value/version agreement: the payload read for key k must have
		// been written by the transaction the read set names.
		for k, val := range res.values {
			id, ok := res.readSet[k]
			if !ok {
				t.Fatalf("value for %q without read-set entry", k)
			}
			wantPrefix := k + "="
			if !strings.HasPrefix(val, wantPrefix) {
				t.Fatalf("torn value %q for key %q", val, k)
			}
			if got := strings.TrimPrefix(val, wantPrefix); got != id.UUID {
				t.Fatalf("value written by %q but read set says %q", got, id.UUID)
			}
		}
	}
}

// TestPropertyRepeatableReadRandomized interleaves re-reads with concurrent
// writers: within one transaction, re-reading a key it has not itself
// written must always return the same version (Corollary 1.1).
func TestPropertyRepeatableReadRandomized(t *testing.T) {
	n, _ := newTestNode(t)
	ctx := context.Background()
	commitTxn(t, n, map[string]string{"x": "0", "y": "0"})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			commitTxn(t, n, map[string]string{"x": fmt.Sprint(i), "y": fmt.Sprint(i)})
			i++
		}
	}()

	for r := 0; r < 20; r++ {
		txid, _ := n.StartTransaction(ctx)
		first := map[string]string{}
		for j := 0; j < 8; j++ {
			k := "x"
			if j%2 == 1 {
				k = "y"
			}
			v, err := n.Get(ctx, txid, k)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := first[k]; ok && prev != string(v) {
				t.Fatalf("repeatable read violated: %q then %q", prev, v)
			}
			first[k] = string(v)
		}
		n.AbortTransaction(ctx, txid)
	}
	close(stop)
	wg.Wait()
}

// TestPropertyGCNeverBreaksInvariant runs local GC sweeps concurrently with
// readers and writers; read sets must remain atomic and reads must never
// observe dirty data (ErrNoValidVersion is legal — §5.2.1).
func TestPropertyGCNeverBreaksInvariant(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	n, err := NewNode(Config{NodeID: "gcprop", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	keys := []string{"a", "b", "c"}

	var logMu sync.Mutex
	writeSets := map[idgen.ID][]string{}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // GC loop
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				n.SweepLocalMetadata(10)
			}
		}
	}()
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 300; i++ {
			txid, _ := n.StartTransaction(ctx)
			ws := []string{keys[rng.Intn(3)], keys[rng.Intn(3)]}
			for _, k := range ws {
				n.Put(ctx, txid, k, []byte(k+"="+txid))
			}
			// The log entry must exist before any reader checks against
			// the log: a commit is readable the instant it returns.
			logMu.Lock()
			id, err := n.CommitTransaction(ctx, txid)
			if err == nil {
				writeSets[id] = ws
			}
			logMu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < 150; i++ {
		txid, _ := n.StartTransaction(ctx)
		for j := 0; j < 3; j++ {
			_, err := n.Get(ctx, txid, keys[j])
			if err != nil && !errors.Is(err, ErrKeyNotFound) && !errors.Is(err, ErrNoValidVersion) {
				t.Fatalf("Get under GC = %v", err)
			}
		}
		rs, _ := n.ReadSet(txid)
		logMu.Lock()
		checkAtomicReadset(t, rs, writeSets)
		logMu.Unlock()
		n.AbortTransaction(ctx, txid)
	}
	close(stop)
	wg.Wait()
}
