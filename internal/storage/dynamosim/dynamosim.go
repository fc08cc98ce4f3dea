// Package dynamosim simulates AWS DynamoDB for the offline reproduction:
// a durable key-value store with millisecond point operations, a 25-item
// batch-write API, and a serializable transaction mode that aborts on
// conflict (the baseline AFT is compared against in §6.1.2 and §6.2).
//
// Substitution note (see DESIGN.md §2): the paper ran against real
// DynamoDB; this simulator reproduces the API surface AFT exploits
// (BatchWriteItem-style batching), the latency shape, and transaction-mode
// conflict aborts, which is what the evaluation's comparisons exercise.
package dynamosim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"aft/internal/latency"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

// MaxBatch is DynamoDB's BatchWriteItem item limit.
const MaxBatch = 25

// MaxReadBatch is DynamoDB's BatchGetItem item limit.
const MaxReadBatch = 100

// MaxItemSize is DynamoDB's item size limit: the key's bytes plus the
// value's.
const MaxItemSize = 400 << 10

// checkItem rejects an item over MaxItemSize, as DynamoDB rejects the
// request before it writes anything.
func checkItem(key string, value []byte) error {
	if len(key)+len(value) > MaxItemSize {
		return fmt.Errorf("dynamodb: item %q of %d bytes: %w", key, len(key)+len(value), storage.ErrItemTooLarge)
	}
	return nil
}

// Options configures the simulator.
type Options struct {
	// Latency is the per-operation latency model; nil means no latency.
	Latency *latency.Model
	// Sleeper injects latencies; nil means never sleep.
	Sleeper *latency.Sleeper
	// Shards is the internal shard count for concurrency (not visible in
	// semantics); 0 defaults to 128 — DynamoDB is a massively parallel
	// service, and the simulator must not serialize callers the real
	// engine would not.
	Shards int
}

// Store is a simulated DynamoDB table. It implements storage.Store and
// storage.Transactor.
type Store struct {
	engine  *kvengine.Engine
	model   *latency.Model
	sleeper *latency.Sleeper
	metrics storage.Metrics

	mu      sync.Mutex
	readers map[string]int
	writers map[string]bool

	off atomic.Bool // fault injection: true while "unavailable"
}

var (
	_ storage.Store      = (*Store)(nil)
	_ storage.Transactor = (*Store)(nil)
)

// New returns an empty simulated table.
func New(opts Options) *Store {
	shards := opts.Shards
	if shards == 0 {
		shards = 128
	}
	return &Store{
		engine:  kvengine.New(shards),
		model:   opts.Latency,
		sleeper: opts.Sleeper,
		readers: make(map[string]int),
		writers: make(map[string]bool),
	}
}

// Name implements storage.Store.
func (s *Store) Name() string { return "dynamodb" }

// Capabilities implements storage.Store.
func (s *Store) Capabilities() storage.Capabilities {
	return storage.Capabilities{BatchWrites: true, MaxBatchSize: MaxBatch, Transactions: true}
}

// Metrics returns the store's operation counters.
func (s *Store) Metrics() *storage.Metrics { return &s.metrics }

// SetAvailable toggles fault injection: when false, every operation returns
// storage.ErrUnavailable.
func (s *Store) SetAvailable(up bool) {
	s.off.Store(!up)
}

func (s *Store) check(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.off.Load() {
		return storage.ErrUnavailable
	}
	return nil
}

func (s *Store) sleep(op latency.Op, n int) {
	s.sleeper.Sleep(s.model.Sample(op, n))
}

// Get implements storage.Store.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	s.metrics.Gets.Add(1)
	s.sleep(latency.OpGet, 1)
	v, ok := s.engine.Get(key)
	if !ok {
		return nil, storage.ErrNotFound
	}
	return v, nil
}

// Put implements storage.Store.
func (s *Store) Put(ctx context.Context, key string, value []byte) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	s.metrics.Puts.Add(1)
	s.sleep(latency.OpPut, 1)
	if err := checkItem(key, value); err != nil {
		return err
	}
	s.engine.Put(key, value)
	return nil
}

// BatchPut implements storage.Store. Batches above MaxBatch are rejected;
// callers (AFT's write buffer) chunk large commits. A batch holding an item
// above MaxItemSize is rejected whole, as Put rejects the item.
func (s *Store) BatchPut(ctx context.Context, items map[string][]byte) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	if len(items) == 0 {
		return nil
	}
	if len(items) > MaxBatch {
		return storage.ErrBatchTooLarge
	}
	s.metrics.Batches.Add(1)
	s.metrics.BatchItems.Add(int64(len(items)))
	s.sleep(latency.OpBatchWrite, len(items))
	for k, v := range items {
		if err := checkItem(k, v); err != nil {
			return err
		}
	}
	s.engine.PutAll(items)
	return nil
}

// BatchGet implements storage.Store in the BatchGetItem style: up to
// MaxReadBatch keys per request, chunked internally so callers can pass any
// number of keys, and every request sent at once (kvengine.Fanout). Missing
// keys are absent from the result.
func (s *Store) BatchGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	kvengine.FanoutChunks(s.model, s.sleeper, latency.OpGet, keys, MaxReadBatch, func(chunk []string) {
		s.metrics.BatchGets.Add(1)
		s.metrics.BatchGetItems.Add(int64(len(chunk)))
		s.engine.GetInto(out, chunk)
	})
	return out, nil
}

// BatchDelete implements storage.Store via BatchWriteItem delete requests:
// up to MaxBatch keys per request, chunked internally and sent at once as
// BatchGet's are. Missing keys are not an error.
func (s *Store) BatchDelete(ctx context.Context, keys []string) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	kvengine.FanoutChunks(s.model, s.sleeper, latency.OpBatchWrite, keys, MaxBatch, func(chunk []string) {
		s.metrics.BatchDeletes.Add(1)
		s.metrics.BatchDeleteItems.Add(int64(len(chunk)))
		s.engine.DeleteAll(chunk)
	})
	return nil
}

// Delete implements storage.Store.
func (s *Store) Delete(ctx context.Context, key string) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	s.metrics.Deletes.Add(1)
	s.sleep(latency.OpDelete, 1)
	s.engine.Delete(key)
	return nil
}

// List implements storage.Store.
func (s *Store) List(ctx context.Context, prefix string) ([]string, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	s.metrics.Lists.Add(1)
	s.sleep(latency.OpList, 1)
	return s.engine.List(prefix), nil
}

// lockForTxn acquires transaction-mode intent locks for keys. Reads conflict
// with in-flight writers; writes conflict with in-flight readers and
// writers. Conflicts fail fast with storage.ErrConflict — DynamoDB
// "proactively aborts transactions in the case of conflict" (§6.1.2) and
// clients retry.
func (s *Store) lockForTxn(keys []string, write bool) (func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		if s.writers[k] || (write && s.readers[k] > 0) {
			s.metrics.Conflicts.Add(1)
			return nil, storage.ErrConflict
		}
	}
	for _, k := range keys {
		if write {
			s.writers[k] = true
		} else {
			s.readers[k]++
		}
	}
	keysCopy := append([]string(nil), keys...)
	return func() {
		s.mu.Lock()
		for _, k := range keysCopy {
			if write {
				delete(s.writers, k)
			} else if s.readers[k]--; s.readers[k] <= 0 {
				delete(s.readers, k)
			}
		}
		s.mu.Unlock()
	}, nil
}

// TransactGet implements storage.Transactor: an atomic, serializable
// multi-key read. Missing keys yield nil map entries.
func (s *Store) TransactGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	s.metrics.Transacts.Add(1)
	unlock, err := s.lockForTxn(keys, false)
	if err != nil {
		return nil, err
	}
	defer unlock()
	s.sleep(latency.OpTransact, len(keys))
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, ok := s.engine.Get(k); ok {
			out[k] = v
		} else {
			out[k] = nil
		}
	}
	return out, nil
}

// TransactPut implements storage.Transactor: an atomic, serializable
// multi-key write (all items or none).
func (s *Store) TransactPut(ctx context.Context, items map[string][]byte) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	s.metrics.Transacts.Add(1)
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	unlock, err := s.lockForTxn(keys, true)
	if err != nil {
		return err
	}
	defer unlock()
	s.sleep(latency.OpTransact, len(items))
	s.engine.PutAll(items)
	return nil
}

// Len returns the number of stored keys (test/diagnostic helper).
func (s *Store) Len() int { return s.engine.Len() }
