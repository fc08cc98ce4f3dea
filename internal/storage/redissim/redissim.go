// Package redissim simulates a cluster-mode Redis deployment (the paper
// runs AWS ElastiCache with 2 shards): a memory-speed KV store where each
// shard is linearizable but no guarantees hold across shards, and multi-key
// writes (MSET) are only possible within a single shard.
//
// Substitution note (see DESIGN.md §2): the simulator reproduces the two
// properties the evaluation leans on — sub-millisecond IO (§6.1.2) and the
// inability to batch arbitrary cross-shard write sets, which is why the
// paper's AFT issued one write after another over Redis (§6.3, §6.4). This
// AFT sends a commit phase's point writes together instead, so a phase
// costs one round trip (internal/core/flush.go). A multi-key read, delete
// or scan is one request per shard, and a cluster client sends those
// together too: the call waits the slowest shard, not the sum of them
// (kvengine.Fanout).
package redissim

import (
	"context"
	"sync/atomic"

	"aft/internal/latency"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
)

// Options configures the simulator.
type Options struct {
	// Shards is the cluster shard count; 0 defaults to 2 (the paper's
	// configuration).
	Shards int
	// Latency is the per-operation latency model; nil means no latency.
	Latency *latency.Model
	// Sleeper injects latencies; nil means never sleep.
	Sleeper *latency.Sleeper
}

// Store is a simulated Redis cluster implementing storage.Store.
type Store struct {
	engine  *kvengine.Engine
	model   *latency.Model
	sleeper *latency.Sleeper
	metrics storage.Metrics

	off atomic.Bool // fault injection: true while "unavailable"
}

var _ storage.Store = (*Store)(nil)

// New returns an empty simulated cluster.
func New(opts Options) *Store {
	shards := opts.Shards
	if shards == 0 {
		shards = 2
	}
	return &Store{
		engine:  kvengine.New(shards),
		model:   opts.Latency,
		sleeper: opts.Sleeper,
	}
}

// Name implements storage.Store.
func (s *Store) Name() string { return "redis" }

// Capabilities implements storage.Store. BatchWrites is false: MSET exists
// but only within one shard, so arbitrary write sets cannot rely on it.
func (s *Store) Capabilities() storage.Capabilities { return storage.Capabilities{} }

// Metrics returns the store's operation counters.
func (s *Store) Metrics() *storage.Metrics { return &s.metrics }

// NumShards returns the cluster's shard count.
func (s *Store) NumShards() int { return s.engine.NumShards() }

// ShardFor returns the shard that owns key.
func (s *Store) ShardFor(key string) int { return s.engine.ShardFor(key) }

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

// Get implements storage.Store. Each shard is linearizable: the read takes
// the shard lock for the duration of the (simulated) operation.
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

// BatchPut implements storage.Store. It behaves like MSET: if every key
// hashes to the same shard the write is applied atomically in one round
// trip; otherwise it returns ErrBatchUnsupported and the caller must fall
// back to point puts (AFT never calls it: Capabilities reports no batch
// writes, so AFT sends point puts, a phase's together).
func (s *Store) BatchPut(ctx context.Context, items map[string][]byte) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	if len(items) == 0 {
		return nil
	}
	shard := -1
	for k := range items {
		sh := s.engine.ShardFor(k)
		if shard == -1 {
			shard = sh
		} else if sh != shard {
			return storage.ErrBatchUnsupported
		}
	}
	s.metrics.Batches.Add(1)
	s.metrics.BatchItems.Add(int64(len(items)))
	s.sleeper.Sleep(s.model.Sample(latency.OpPut, len(items)))
	unlock := s.engine.LockShard(shard)
	defer unlock()
	for k, v := range items {
		s.engine.PutLocked(k, v)
	}
	return nil
}

// shardBuf returns the buffer a batch's keys are grouped by shard in: buf,
// or for a batch larger than buf one heap slice that every shard reuses.
func shardBuf(buf, keys []string) []string {
	if len(keys) > cap(buf) {
		return make([]string, 0, len(keys))
	}
	return buf[:0]
}

// keysOn appends to dst the keys owned by shard sh, in caller order.
func (s *Store) keysOn(dst, keys []string, sh int) []string {
	for _, k := range keys {
		if s.engine.ShardFor(k) == sh {
			dst = append(dst, k)
		}
	}
	return dst
}

// BatchGet implements storage.Store in the cluster-client MGET style: keys
// are grouped by owning shard, each shard answers one MGET, and the client
// sends every shard's MGET at once, so the call waits one round trip, the
// slowest shard's, regardless of key count. Each shard's read runs under
// that shard's lock. Missing keys are absent from the result.
func (s *Store) BatchGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	var buf [32]string
	chunk := shardBuf(buf[:], keys)
	kvengine.Fanout(s.model, s.sleeper, latency.OpGet, s.engine.NumShards(),
		func(sh int) int { return len(s.keysOn(chunk[:0], keys, sh)) },
		func(sh int) {
			chunk = s.keysOn(chunk[:0], keys, sh)
			s.metrics.BatchGets.Add(1)
			s.metrics.BatchGetItems.Add(int64(len(chunk)))
			s.engine.GetInto(out, chunk)
		})
	return out, nil
}

// BatchDelete implements storage.Store as one multi-key DEL per shard the
// keys touch, sent at once as BatchGet's MGETs are. Missing keys are not an
// error.
func (s *Store) BatchDelete(ctx context.Context, keys []string) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	var buf [32]string
	chunk := shardBuf(buf[:], keys)
	kvengine.Fanout(s.model, s.sleeper, latency.OpDelete, s.engine.NumShards(),
		func(sh int) int { return len(s.keysOn(chunk[:0], keys, sh)) },
		func(sh int) {
			chunk = s.keysOn(chunk[:0], keys, sh)
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

// List implements storage.Store. Cluster-mode Redis scans every shard, one
// SCAN per node, and the client sends them at once: the call waits the
// slowest of one list latency sampled per shard.
func (s *Store) List(ctx context.Context, prefix string) ([]string, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	s.metrics.Lists.Add(1)
	kvengine.Fanout(s.model, s.sleeper, latency.OpList, s.engine.NumShards(),
		func(int) int { return 1 }, nil)
	return s.engine.List(prefix), nil
}

// Len returns the number of stored keys (test/diagnostic helper).
func (s *Store) Len() int { return s.engine.Len() }
