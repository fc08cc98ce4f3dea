// Package kvengine simulates the three cloud stores the paper runs AFT
// over — DynamoDB, S3 and Redis — as three profiles of one sharded
// in-memory engine. The semantics are real (a write is durable once
// acknowledged, values are copied, listing is ordered, every call is safe
// for concurrent use); what a profile sets is each service's API shape —
// its batch limits, how a multi-key call splits into requests — and the
// latency model each request samples.
//
// Substitution notes. The paper ran against the real services:
//   - DynamoDB: the simulator reproduces the API surface AFT exploits
//     (BatchWriteItem-style batching), the latency shape, and
//     transaction-mode conflict aborts, which is what the evaluation's
//     comparisons exercise (§6.1.2, §6.2).
//   - S3: the paper's Figure 3 shows S3 is a poor fit for AFT's
//     key-per-version layout because of its random-IO latency profile; the
//     simulator reproduces exactly that profile, and S3's lack of a
//     multi-object write, so the comparison retains its shape.
//   - Redis: a cluster-mode deployment (the paper runs AWS ElastiCache
//     with 2 shards) in which each shard is linearizable but nothing holds
//     across shards. The simulator reproduces the two properties the
//     evaluation leans on — sub-millisecond IO (§6.1.2) and the inability
//     to batch arbitrary cross-shard write sets (MSET is single-shard),
//     which is why the paper's AFT issued one write after another over
//     Redis (§6.3, §6.4). This AFT sends a commit phase's point writes
//     together instead, so a phase costs one round trip
//     (internal/core/flush.go).
//
// A multi-key read, delete or scan is sent as several requests — chunks
// at the service's limit, or one per Redis shard — and a client sends
// them together: the call waits the slowest request of each wave, not the
// sum (fanout).
package kvengine

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"aft/internal/latency"
	"aft/internal/storage"
)

// The services' request limits.
const (
	// DynamoDBMaxBatch is BatchWriteItem's item limit, for puts and
	// deletes alike.
	DynamoDBMaxBatch = 25
	// DynamoDBMaxReadBatch is BatchGetItem's item limit.
	DynamoDBMaxReadBatch = 100
	// DynamoDBMaxItemSize is DynamoDB's item size limit: the key's bytes
	// plus the value's.
	DynamoDBMaxItemSize = 400 << 10
	// S3MaxDeleteBatch is DeleteObjects' key limit.
	S3MaxDeleteBatch = 1000
	// internalShards is the lock-shard count of DynamoDB and S3, which are
	// massively parallel services: it is not visible in semantics, and the
	// simulator must not serialize callers the real service would not.
	internalShards = 128
)

// profile is what tells one simulated service from another.
type profile struct {
	name string
	caps storage.Capabilities
	// maxItem bounds an item's key plus value bytes; 0 means no limit.
	maxItem int
	// maxBatch bounds a BatchPut's items; 0 means the service has no
	// multi-key write and BatchPut returns storage.ErrBatchUnsupported.
	maxBatch int
	// mset: a BatchPut succeeds only if every key lives on one shard, and
	// fails with storage.ErrBatchUnsupported otherwise.
	mset bool
	// batchOp is the latency op a BatchPut samples.
	batchOp latency.Op
	// readBatch and deleteBatch are the keys per BatchGet and BatchDelete
	// request; 0 means one request per shard the keys touch. A BatchGet
	// request of one key is a point GET and counts as a Get.
	readBatch, deleteBatch int
	// deleteOp is the latency op each BatchDelete request samples.
	deleteOp latency.Op
	// listPerShard: a List sends one scan per shard.
	listPerShard bool
	shards       int
}

var (
	dynamoDBProfile = profile{
		name:        "dynamodb",
		caps:        storage.Capabilities{BatchWrites: true, MaxBatchSize: DynamoDBMaxBatch, Transactions: true},
		maxItem:     DynamoDBMaxItemSize,
		maxBatch:    DynamoDBMaxBatch,
		batchOp:     latency.OpBatchWrite,
		readBatch:   DynamoDBMaxReadBatch,
		deleteBatch: DynamoDBMaxBatch,
		deleteOp:    latency.OpBatchWrite,
		shards:      internalShards,
	}
	s3Profile = profile{
		name:        "s3",
		readBatch:   1,
		deleteBatch: S3MaxDeleteBatch,
		deleteOp:    latency.OpDelete,
		shards:      internalShards,
	}
	// BatchWrites is false on Redis: MSET exists but only within one
	// shard, so arbitrary write sets cannot rely on it.
	redisProfile = profile{
		name:         "redis",
		maxBatch:     math.MaxInt,
		mset:         true,
		batchOp:      latency.OpPut,
		deleteOp:     latency.OpDelete,
		listPerShard: true,
		shards:       2,
	}
)

// Options configures a simulated store.
type Options struct {
	// Latency is the per-operation latency model; nil means no latency.
	Latency *latency.Model
	// Sleeper injects latencies; nil means never sleep.
	Sleeper *latency.Sleeper
}

// Store is a simulated cloud store implementing storage.Store.
type Store struct {
	engine
	p       profile
	model   *latency.Model
	sleeper *latency.Sleeper
	metrics storage.Metrics

	off atomic.Bool // fault injection: true while "unavailable"
}

var _ storage.Store = (*Store)(nil)

func newStore(p profile, opts Options) *Store {
	return &Store{engine: newEngine(p.shards), p: p, model: opts.Latency, sleeper: opts.Sleeper}
}

// NewS3 returns an empty simulated S3 bucket: high, high-variance latency
// and no batch write.
func NewS3(opts Options) *Store {
	return newStore(s3Profile, opts)
}

// NewRedis returns an empty simulated cluster-mode Redis of the given
// shard count (0 means 2, the paper's configuration): memory-speed
// operations, per-shard linearizability, single-shard MSET only.
func NewRedis(shards int, opts Options) *Store {
	p := redisProfile
	if shards != 0 {
		p.shards = shards
	}
	return newStore(p, opts)
}

// Name implements storage.Store.
func (s *Store) Name() string { return s.p.name }

// Capabilities implements storage.Store.
func (s *Store) Capabilities() storage.Capabilities { return s.p.caps }

// Metrics returns the store's operation counters.
func (s *Store) Metrics() *storage.Metrics { return &s.metrics }

// NumShards returns the engine's shard count.
func (s *Store) NumShards() int { return len(s.shards) }

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

// checkItem rejects an item over the profile's size limit, as DynamoDB
// rejects the request before it writes anything.
func (s *Store) checkItem(key string, value []byte) error {
	if s.p.maxItem > 0 && len(key)+len(value) > s.p.maxItem {
		return fmt.Errorf("%s: item %q of %d bytes: %w", s.p.name, key, len(key)+len(value), storage.ErrItemTooLarge)
	}
	return nil
}

// Get implements storage.Store.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	s.metrics.Gets.Add(1)
	s.sleep(latency.OpGet, 1)
	v, ok := s.get(key)
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
	if err := s.checkItem(key, value); err != nil {
		return err
	}
	s.put(key, value)
	return nil
}

// BatchPut implements storage.Store as the service's multi-key write:
// DynamoDB's BatchWriteItem of at most DynamoDBMaxBatch items (AFT's write
// routine chunks larger commits), Redis's MSET, whose keys must share a
// shard, or on S3 storage.ErrBatchUnsupported: AFT sends point puts there,
// a commit phase's together. A batch holding an item over the size limit
// is rejected whole, as Put rejects the item.
func (s *Store) BatchPut(ctx context.Context, items map[string][]byte) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	if s.p.maxBatch == 0 {
		return storage.ErrBatchUnsupported
	}
	if len(items) == 0 {
		return nil
	}
	if len(items) > s.p.maxBatch {
		return storage.ErrBatchTooLarge
	}
	if s.p.mset && !s.oneShard(items) {
		return storage.ErrBatchUnsupported
	}
	s.metrics.Batches.Add(1)
	s.metrics.BatchItems.Add(int64(len(items)))
	s.sleep(s.p.batchOp, len(items))
	for k, v := range items {
		if err := s.checkItem(k, v); err != nil {
			return err
		}
	}
	s.putAll(items)
	return nil
}

// oneShard reports whether every key of items lives on one shard.
func (s *Store) oneShard(items map[string][]byte) bool {
	shard := -1
	for k := range items {
		if sh := s.ShardFor(k); shard == -1 {
			shard = sh
		} else if sh != shard {
			return false
		}
	}
	return true
}

// BatchGet implements storage.Store: DynamoDB's BatchGetItem requests of
// up to DynamoDBMaxReadBatch keys, S3's point GETs (billed one Get per
// key), or one MGET per Redis shard, every request sent at once (fanout).
// Missing keys are absent from the result.
func (s *Store) BatchGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	s.send(keys, out)
	return out, nil
}

// BatchDelete implements storage.Store: DynamoDB's BatchWriteItem delete
// requests, S3's DeleteObjects or one multi-key DEL per Redis shard, sent
// at once as BatchGet's requests are. Missing keys are not an error.
func (s *Store) BatchDelete(ctx context.Context, keys []string) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	s.send(keys, nil)
	return nil
}

// send runs a BatchGet into out, or with out nil a BatchDelete, as the
// requests the profile splits it into, all sent at once (fanout): chunks
// of the profile's limit in order, or with limit 0 one request per shard
// the keys touch, each with that shard's keys in caller order.
func (s *Store) send(keys []string, out map[string][]byte) {
	op, limit := latency.OpGet, s.p.readBatch
	if out == nil {
		op, limit = s.p.deleteOp, s.p.deleteBatch
	}
	if limit > 0 {
		fanoutChunks(s.model, s.sleeper, op, keys, limit, func(chunk []string) { s.apply(chunk, out) })
		return
	}
	var buf [32]string
	chunk := shardBuf(buf[:], keys)
	fanout(s.model, s.sleeper, op, len(s.shards),
		func(sh int) int { return len(s.keysOn(chunk[:0], keys, sh)) },
		func(sh int) {
			chunk = s.keysOn(chunk[:0], keys, sh)
			s.apply(chunk, out)
		})
}

// apply runs one request of send and counts it.
func (s *Store) apply(chunk []string, out map[string][]byte) {
	switch {
	case out == nil:
		s.metrics.BatchDeletes.Add(1)
		s.metrics.BatchDeleteItems.Add(int64(len(chunk)))
		s.deleteAll(chunk)
		return
	case s.p.readBatch == 1:
		s.metrics.Gets.Add(1)
	default:
		s.metrics.BatchGets.Add(1)
		s.metrics.BatchGetItems.Add(int64(len(chunk)))
	}
	s.getInto(out, chunk)
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
		if s.ShardFor(k) == sh {
			dst = append(dst, k)
		}
	}
	return dst
}

// Delete implements storage.Store.
func (s *Store) Delete(ctx context.Context, key string) error {
	if err := s.check(ctx); err != nil {
		return err
	}
	s.metrics.Deletes.Add(1)
	s.sleep(latency.OpDelete, 1)
	s.delete(key)
	return nil
}

// List implements storage.Store. Cluster-mode Redis scans every shard, one
// SCAN per node sent at once: the call waits the slowest of one list
// latency sampled per shard.
func (s *Store) List(ctx context.Context, prefix string) ([]string, error) {
	if err := s.check(ctx); err != nil {
		return nil, err
	}
	s.metrics.Lists.Add(1)
	scans := 1
	if s.p.listPerShard {
		scans = len(s.shards)
	}
	fanout(s.model, s.sleeper, latency.OpList, scans, func(int) int { return 1 }, nil)
	return s.list(prefix), nil
}
