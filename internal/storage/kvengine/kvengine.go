// Package kvengine is the sharded in-memory key-value core that backs every
// simulated storage engine in this repository. It provides durable-once-
// acknowledged semantics (everything lives in process memory for the
// simulation; "durability" means a write is immediately visible to every
// subsequent read, including List scans) and is safe for concurrent use.
// Fanout is the one rule by which every simulator's client times a call it
// sends as several requests.
package kvengine

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"aft/internal/strhash"
)

// Engine is a sharded concurrent map from string keys to byte values.
type Engine struct {
	shards []*shard
}

type shard struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// New returns an Engine with n shards (n < 1 is normalized to 1).
func New(n int) *Engine {
	if n < 1 {
		n = 1
	}
	e := &Engine{shards: make([]*shard, n)}
	for i := range e.shards {
		e.shards[i] = &shard{data: make(map[string][]byte)}
	}
	return e
}

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// ShardFor returns the shard index that owns key; exposed so the Redis
// simulator can enforce single-shard MSET semantics.
func (e *Engine) ShardFor(key string) int {
	return int(strhash.FNV32a(key) % uint32(len(e.shards)))
}

func (e *Engine) shardOf(key string) *shard { return e.shards[e.ShardFor(key)] }

// Get returns a copy of the value at key and whether it exists.
func (e *Engine) Get(key string) ([]byte, bool) {
	s := e.shardOf(key)
	s.mu.RLock()
	v, ok := s.data[key]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true
}

// Put stores a copy of value at key.
func (e *Engine) Put(key string, value []byte) {
	v := make([]byte, len(value))
	copy(v, value)
	s := e.shardOf(key)
	s.mu.Lock()
	s.data[key] = v
	s.mu.Unlock()
}

// PutAll stores copies of all items. The application is not atomic across
// shards; callers that need atomic visibility layer it above (as AFT does
// with its commit record).
func (e *Engine) PutAll(items map[string][]byte) {
	// Sort by shard to take each shard lock once; values are copied before
	// any lock is taken so the memcpy never extends a hold. Batches up to
	// the stack buffer's size (DynamoDB's limit is 25) allocate only the
	// copies.
	type put struct {
		shard int
		k     string
		v     []byte
	}
	var buf [32]put
	puts := buf[:0]
	for k, v := range items {
		c := make([]byte, len(v))
		copy(c, v)
		puts = append(puts, put{e.ShardFor(k), k, c})
	}
	slices.SortFunc(puts, func(a, b put) int { return a.shard - b.shard })
	for i := 0; i < len(puts); {
		shard := puts[i].shard
		s := e.shards[shard]
		s.mu.Lock()
		for ; i < len(puts) && puts[i].shard == shard; i++ {
			s.data[puts[i].k] = puts[i].v
		}
		s.mu.Unlock()
	}
}

// shardKey is one key of a batch with the shard that owns it.
type shardKey struct {
	shard int
	k     string
}

// byShard appends keys to dst sorted by owning shard, so a batch takes each
// shard lock once. Callers pass a stack buffer: batches up to its size
// (DynamoDB's limit is 25) group without allocating.
func (e *Engine) byShard(dst []shardKey, keys []string) []shardKey {
	for _, k := range keys {
		dst = append(dst, shardKey{e.ShardFor(k), k})
	}
	slices.SortFunc(dst, func(a, b shardKey) int { return a.shard - b.shard })
	return dst
}

// GetInto stores in out a copy of the value of every present key, grouping
// the probes by shard so each shard lock is taken at most once. Missing keys
// are left out. Batches up to the stack buffer's size allocate only the
// copies (and whatever out needs to grow).
func (e *Engine) GetInto(out map[string][]byte, keys []string) {
	var buf [32]shardKey
	sks := e.byShard(buf[:0], keys)
	for i := 0; i < len(sks); {
		s := e.shards[sks[i].shard]
		s.mu.RLock()
		for shard := sks[i].shard; i < len(sks) && sks[i].shard == shard; i++ {
			if v, ok := s.data[sks[i].k]; ok {
				c := make([]byte, len(v))
				copy(c, v)
				out[sks[i].k] = c
			}
		}
		s.mu.RUnlock()
	}
}

// DeleteAll removes every listed key, taking each shard lock at most once.
func (e *Engine) DeleteAll(keys []string) {
	var buf [32]shardKey
	sks := e.byShard(buf[:0], keys)
	for i := 0; i < len(sks); {
		s := e.shards[sks[i].shard]
		s.mu.Lock()
		for shard := sks[i].shard; i < len(sks) && sks[i].shard == shard; i++ {
			delete(s.data, sks[i].k)
		}
		s.mu.Unlock()
	}
}

// Delete removes key if present.
func (e *Engine) Delete(key string) {
	s := e.shardOf(key)
	s.mu.Lock()
	delete(s.data, key)
	s.mu.Unlock()
}

// List returns all keys with the given prefix in lexicographic order.
func (e *Engine) List(prefix string) []string {
	var out []string
	for _, s := range e.shards {
		s.mu.RLock()
		for k := range s.data {
			if strings.HasPrefix(k, prefix) {
				out = append(out, k)
			}
		}
		s.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of keys.
func (e *Engine) Len() int {
	n := 0
	for _, s := range e.shards {
		s.mu.RLock()
		n += len(s.data)
		s.mu.RUnlock()
	}
	return n
}

// LockShard acquires the write lock of shard i; the Redis simulator uses it
// to serialize multi-key operations within one shard. The returned function
// releases the lock.
func (e *Engine) LockShard(i int) func() {
	s := e.shards[i]
	s.mu.Lock()
	return s.mu.Unlock
}

// PutLocked writes key assuming the owning shard lock is already held.
func (e *Engine) PutLocked(key string, value []byte) {
	v := make([]byte, len(value))
	copy(v, value)
	e.shardOf(key).data[key] = v
}
