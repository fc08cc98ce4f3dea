package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

// A write phase's storage writes are independent, so the flush sends all
// of a phase's calls at once and waits out one round trip per phase. These
// tests hold every call of a phase until all of them are in flight: a flush
// that sent them one after another would never gather them.

// capsStore reports caps in place of the inner engine's capabilities.
type capsStore struct {
	storage.Store
	caps storage.Capabilities
}

func (s capsStore) Capabilities() storage.Capabilities { return s.caps }

// rendezvousWait is how long a call waits for the rest of its phase.
const rendezvousWait = 5 * time.Second

// rendezvousStore holds each write call until expect[phase] calls of its
// phase (0: data, 1: commit records) have arrived, then lets them all go.
// A phase whose calls never run together times out, and from then on every
// write fails at once. It also notes any record call that begins while a
// data call is still running, which §3.3 forbids.
type rendezvousStore struct {
	storage.Store
	caps   storage.Capabilities
	expect [2]int
	all    [2]chan struct{}
	// delay is slept inside every call, after the rendezvous.
	delay time.Duration

	mu         sync.Mutex
	arrived    [2]int
	running    [2]int
	maxRunning [2]int
	early      bool
	broken     bool
}

func newRendezvousStore(caps storage.Capabilities, dataCalls, recordCalls int) *rendezvousStore {
	s := &rendezvousStore{Store: kvengine.NewDynamoDB(kvengine.Options{}), caps: caps, expect: [2]int{dataCalls, recordCalls}}
	for p := range s.all {
		s.all[p] = make(chan struct{})
	}
	return s
}

func (s *rendezvousStore) Capabilities() storage.Capabilities { return s.caps }

func (s *rendezvousStore) enter(key string) (int, error) {
	p := 0
	if strings.HasPrefix(key, records.CommitPrefix) {
		p = 1
	}
	s.mu.Lock()
	if p == 1 && s.running[0] > 0 {
		s.early = true
	}
	s.running[p]++
	s.maxRunning[p] = max(s.maxRunning[p], s.running[p])
	s.arrived[p]++
	if s.arrived[p] == s.expect[p] {
		close(s.all[p])
	}
	broken := s.broken
	s.mu.Unlock()
	if broken {
		return p, errors.New("rendezvous: an earlier phase never gathered")
	}
	select {
	case <-s.all[p]:
		time.Sleep(s.delay)
		return p, nil
	case <-time.After(rendezvousWait):
		s.mu.Lock()
		s.broken = true
		s.mu.Unlock()
		return p, fmt.Errorf("rendezvous: the phase's %d calls were never in flight together", s.expect[p])
	}
}

func (s *rendezvousStore) exit(p int) {
	s.mu.Lock()
	s.running[p]--
	s.mu.Unlock()
}

func (s *rendezvousStore) Put(ctx context.Context, key string, value []byte) error {
	p, err := s.enter(key)
	defer s.exit(p)
	if err != nil {
		return err
	}
	return s.Store.Put(ctx, key, value)
}

func (s *rendezvousStore) BatchPut(ctx context.Context, items map[string][]byte) error {
	var key string
	for key = range items {
		break // a flush phase's batch holds one kind of write
	}
	p, err := s.enter(key)
	defer s.exit(p)
	if err != nil {
		return err
	}
	return s.Store.BatchPut(ctx, items)
}

// requireReads fails t unless a transaction on n reads every key of kvs
// at its value.
func requireReads(t *testing.T, n *Node, kvs map[string]string) {
	t.Helper()
	ctx := context.Background()
	txid, err := n.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer n.AbortTransaction(ctx, txid)
	for k, v := range kvs {
		if got, err := n.Get(ctx, txid, k); err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
}

// keysValued returns a write set of count keys named prefix0, prefix1, ...,
// each value too large to ride inside the record (twoPhase).
func keysValued(prefix string, count int) map[string]string {
	kvs := map[string]string{}
	for i := range count {
		kvs[fmt.Sprintf("%s%d", prefix, i)] = twoPhase(fmt.Sprintf("v%d", i))
	}
	return kvs
}

// TestPhaseSendsItsChunksTogether: a seven-key commit at a batch limit of
// two is four data calls (three BatchPuts and a Put) in flight together,
// then its record, sent once every data call has returned.
func TestPhaseSendsItsChunksTogether(t *testing.T) {
	store := newRendezvousStore(storage.Capabilities{BatchWrites: true, MaxBatchSize: 2}, 4, 1)
	n, err := NewNode(Config{NodeID: "phase", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	kvs := keysValued("k", 7)
	commitTxn(t, n, kvs)
	if store.arrived != [2]int{4, 1} {
		t.Fatalf("calls (data, records) = %v, want [4 1]", store.arrived)
	}
	if store.maxRunning != [2]int{4, 1} {
		t.Fatalf("most calls in flight (data, records) = %v, want [4 1]", store.maxRunning)
	}
	if store.early {
		t.Fatal("the record write began while a data write was still running")
	}
	requireReads(t, n, kvs)
}

// TestPointEngineCommitIsTwoRoundTrips: on an engine without batch writes a
// six-key commit sends its six data Puts together, then its record.
func TestPointEngineCommitIsTwoRoundTrips(t *testing.T) {
	store := newRendezvousStore(storage.Capabilities{}, 6, 1)
	n, err := NewNode(Config{NodeID: "point", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	kvs := keysValued("k", 6)
	commitTxn(t, n, kvs)
	if store.early {
		t.Fatal("the record write began while a data write was still running")
	}
	if store.maxRunning != [2]int{6, 1} {
		t.Fatalf("most calls in flight (data, records) = %v, want [6 1]", store.maxRunning)
	}
	if store.arrived != [2]int{6, 1} {
		t.Fatalf("calls (data, records) = %v, want [6 1]", store.arrived)
	}
	requireReads(t, n, kvs)
}

// TestPhaseFanoutIsBounded: a phase of more calls than storage.MaxCallsInFlight has
// exactly that many outstanding at its peak, and still writes everything.
func TestPhaseFanoutIsBounded(t *testing.T) {
	keys := 3*storage.MaxCallsInFlight + 5
	store := newRendezvousStore(storage.Capabilities{}, storage.MaxCallsInFlight, 1)
	store.delay = 100 * time.Microsecond
	n, err := NewNode(Config{NodeID: "wide", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	kvs := map[string]string{}
	for i := range keys {
		kvs[fmt.Sprintf("k%03d", i)] = twoPhase("v")
	}
	commitTxn(t, n, kvs)
	if got := store.maxRunning[0]; got != storage.MaxCallsInFlight {
		t.Fatalf("most data calls in flight = %d, want %d", got, storage.MaxCallsInFlight)
	}
	if store.early {
		t.Fatal("the record write began while a data write was still running")
	}
	if want := [2]int{keys, 1}; store.arrived != want {
		t.Fatalf("calls (data, records) = %v, want %v", store.arrived, want)
	}
}

// TestConcurrentChunksFailOnlyTheirOwners: concurrent commits whose data
// phases are several chunks each, over a store whose batches apply in
// part. Only the commit that owns the one unwritable key fails, as a
// write-set failure with no record written; the others commit.
func TestConcurrentChunksFailOnlyTheirOwners(t *testing.T) {
	inner := kvengine.NewDynamoDB(kvengine.Options{})
	store := capsStore{Store: lossyBatchStore{inner}, caps: storage.Capabilities{BatchWrites: true, MaxBatchSize: 2}}
	n, err := NewNode(Config{NodeID: "lossy", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	winners := []map[string]string{keysValued("a", 5), keysValued("c", 3)}
	loser := map[string]string{"b0": twoPhase("v"), "b1": twoPhase("v"), "b-lost": twoPhase("v"), "b3": twoPhase("v")}
	errs := commitAll(n, winners[0], winners[1], loser)
	for i, kvs := range winners {
		if errs[i] != nil {
			t.Fatalf("winner failed: %v", errs[i])
		}
		requireReads(t, n, kvs)
	}
	if err := errs[2]; err == nil || !strings.Contains(err.Error(), "aft: persisting write set") {
		t.Fatalf("loser's error = %v, want a write-set failure", err)
	}
	if recs, err := inner.List(context.Background(), records.CommitPrefix); err != nil || len(recs) != 2 {
		t.Fatalf("commit records = %q, %v; want the 2 winners'", recs, err)
	}
	if got := n.MetadataSize(); got != 2 {
		t.Fatalf("installed records = %d, want the 2 winners", got)
	}
}
