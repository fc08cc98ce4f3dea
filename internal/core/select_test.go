package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"aft/internal/idgen"
	"aft/internal/records"
)

// linearCowritten is Cowritten as first written: a scan of the write set.
func linearCowritten(rec *records.CommitRecord, key string) bool {
	for _, k := range rec.WriteSet {
		if k == key {
			return true
		}
	}
	return false
}

// linearSelect is Algorithm 1 as first written, the reference for the
// binary searches: the lower bound scans each read record's write set, and
// a candidate is checked by looking up every key of its write set in the
// read set, |W|·|R| compares. The caller holds key's stripe lock.
func linearSelect(t *txnState, s *stripe, key string) (idgen.ID, *records.CommitRecord, error) {
	lower := idgen.Null
	for _, e := range t.reads {
		if linearCowritten(e.rec, key) && lower.Less(e.id) {
			lower = e.id
		}
	}
	candidates := s.index.atLeast(key, lower)
	if len(candidates) == 0 {
		if lower.IsNull() {
			return idgen.Null, nil, ErrKeyNotFound
		}
		return idgen.Null, nil, ErrNoValidVersion
	}
	for i := len(candidates) - 1; i >= 0; i-- {
		tid := candidates[i]
		rec := s.commits[tid]
		if rec == nil {
			continue
		}
		valid := true
		for _, l := range rec.WriteSet {
			if j := t.readOf(l); j >= 0 && t.reads[j].id.Less(tid) {
				valid = false
				break
			}
		}
		if valid {
			return tid, rec, nil
		}
	}
	return idgen.Null, nil, ErrNoValidVersion
}

// TestAlgorithm1MatchesLinearReference runs Algorithm 1 two ways on random
// metadata — write sets of 1–64 keys, read sets of up to 24 keys each read
// at a random version that wrote it — and requires the binary-search
// version (lowerBound, then selectVersionLocked) to select exactly what the
// linear reference selects, and to fail exactly when it fails.
func TestAlgorithm1MatchesLinearReference(t *testing.T) {
	const (
		universe  = 96  // keys a record may write
		probed    = 104 // keys read: the last few nobody wrote
		recsRound = 40
		rounds    = 60
	)
	rng := rand.New(rand.NewSource(27))
	keyName := func(i int) string { return fmt.Sprintf("k%03d", i) }
	outcomes := map[string]int{}
	for round := 0; round < rounds; round++ {
		n, _ := newTestNode(t)
		recs := make([]*records.CommitRecord, recsRound)
		writers := make(map[string][]*records.CommitRecord)
		for i := range recs {
			ws := make([]string, 1+rng.Intn(64))
			for j, k := range rng.Perm(universe)[:len(ws)] {
				ws[j] = keyName(k)
			}
			id := idgen.ID{Timestamp: int64(round*recsRound + i + 1), UUID: fmt.Sprintf("r%d-%d", round, i)}
			recs[i] = records.NewCommitRecord(id, ws, "peer")
			for _, k := range recs[i].WriteSet {
				writers[k] = append(writers[k], recs[i])
			}
		}
		n.MergeRemoteCommits(recs)
		if got := n.MetadataSize(); got != recsRound {
			t.Fatalf("round %d: %d records installed, want %d", round, got, recsRound)
		}
		for probe := 0; probe < 20; probe++ {
			txn := &txnState{}
			for _, k := range rng.Perm(universe)[:rng.Intn(25)] {
				key := keyName(k)
				if w := writers[key]; len(w) > 0 {
					rec := w[rng.Intn(len(w))]
					txn.reads = append(txn.reads, readEntry{key: key, id: rec.ID(), rec: rec})
				}
			}
			key := keyName(rng.Intn(probed))
			lower, err := txn.lowerBound(key)
			if err != nil {
				t.Fatal(err)
			}
			s := n.stripeFor(key)
			s.mu.RLock()
			gotID, gotRec, gotErr := n.selectVersionLocked(txn, key, lower)
			wantID, wantRec, wantErr := linearSelect(txn, s, key)
			candidates := s.index.atLeast(key, lower)
			s.mu.RUnlock()
			if !gotID.Equal(wantID) || gotRec != wantRec || !errors.Is(gotErr, wantErr) {
				t.Fatalf("round %d, read %q with %d reads: selected %v, %v; reference %v, %v",
					round, key, len(txn.reads), gotID, gotErr, wantID, wantErr)
			}
			switch {
			case wantErr != nil:
				outcomes[wantErr.Error()]++
			case wantID.Equal(candidates[len(candidates)-1]):
				outcomes["newest"]++
			default:
				outcomes["older"]++ // a newer candidate fractured the reads
			}
		}
	}
	t.Logf("outcomes: %v", outcomes)
	for _, o := range []string{ErrKeyNotFound.Error(), ErrNoValidVersion.Error(), "newest", "older"} {
		if outcomes[o] == 0 {
			t.Errorf("no read ended %q: the random metadata misses a case", o)
		}
	}
}
