// Package s3sim simulates AWS S3 for the offline reproduction: a durable
// object store with high, high-variance per-operation latency and no
// batch-write primitive.
//
// Substitution note (see DESIGN.md §2): the paper's Figure 3 shows S3 is a
// poor fit for AFT's key-per-version layout because of its random-IO
// latency profile; the simulator reproduces exactly that profile so the
// comparison retains its shape.
package s3sim

import (
	"context"
	"sync/atomic"

	"aft/internal/latency"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

// Options configures the simulator.
type Options struct {
	// Latency is the per-operation latency model; nil means no latency.
	Latency *latency.Model
	// Sleeper injects latencies; nil means never sleep.
	Sleeper *latency.Sleeper
}

// Store is a simulated S3 bucket implementing storage.Store.
type Store struct {
	engine  *kvengine.Engine
	model   *latency.Model
	sleeper *latency.Sleeper
	metrics storage.Metrics

	off atomic.Bool // fault injection: true while "unavailable"
}

var _ storage.Store = (*Store)(nil)

// New returns an empty simulated bucket.
func New(opts Options) *Store {
	return &Store{
		engine:  kvengine.New(128),
		model:   opts.Latency,
		sleeper: opts.Sleeper,
	}
}

// Name implements storage.Store.
func (s *Store) Name() string { return "s3" }

// Capabilities implements storage.Store: no batching, no transactions.
func (s *Store) Capabilities() storage.Capabilities { return storage.Capabilities{} }

// Metrics returns the store's operation counters.
func (s *Store) Metrics() *storage.Metrics { return &s.metrics }

// SetAvailable toggles fault injection.
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

// Get implements storage.Store.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	s.metrics.Gets.Add(1)
	s.sleeper.Sleep(s.model.Sample(latency.OpGet, 1))
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
	s.sleeper.Sleep(s.model.Sample(latency.OpPut, 1))
	s.engine.Put(key, value)
	return nil
}

// BatchPut implements storage.Store by returning ErrBatchUnsupported:
// S3 has no multi-object write. AFT sends point puts instead, a commit
// phase's together.
func (s *Store) BatchPut(ctx context.Context, items map[string][]byte) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	return storage.ErrBatchUnsupported
}

// MaxDeleteBatch is S3's DeleteObjects key limit.
const MaxDeleteBatch = 1000

// BatchGet implements storage.Store. S3 has no multi-object read, but a
// client issues the GETs at once (kvengine.Fanout): the call is billed one
// point Get per key, while the simulated wall-clock cost is the slowest
// request of each wave of the fan-out, not the sum.
func (s *Store) BatchGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	kvengine.FanoutChunks(s.model, s.sleeper, latency.OpGet, keys, 1, func(key []string) {
		s.metrics.Gets.Add(1)
		s.engine.GetInto(out, key)
	})
	return out, nil
}

// BatchDelete implements storage.Store via DeleteObjects: up to
// MaxDeleteBatch keys per request, chunked internally and sent at once as
// BatchGet's GETs are. Missing keys are not an error.
func (s *Store) BatchDelete(ctx context.Context, keys []string) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	kvengine.FanoutChunks(s.model, s.sleeper, latency.OpDelete, keys, MaxDeleteBatch, func(chunk []string) {
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
	s.sleeper.Sleep(s.model.Sample(latency.OpDelete, 1))
	s.engine.Delete(key)
	return nil
}

// List implements storage.Store.
func (s *Store) List(ctx context.Context, prefix string) ([]string, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	s.metrics.Lists.Add(1)
	s.sleeper.Sleep(s.model.Sample(latency.OpList, 1))
	return s.engine.List(prefix), nil
}

// Len returns the number of stored objects (test/diagnostic helper).
func (s *Store) Len() int { return s.engine.Len() }
