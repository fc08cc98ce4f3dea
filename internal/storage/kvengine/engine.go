package kvengine

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"aft/internal/strhash"
)

// engine is a sharded concurrent map from string keys to byte values:
// everything lives in process memory, and a write is visible to every
// later read, List scans included, once it returns.
type engine struct {
	shards []*shard
}

type shard struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// newEngine returns an engine with n shards (n < 1 is normalized to 1).
func newEngine(n int) engine {
	if n < 1 {
		n = 1
	}
	e := engine{shards: make([]*shard, n)}
	for i := range e.shards {
		e.shards[i] = &shard{data: make(map[string][]byte)}
	}
	return e
}

// ShardFor returns the shard that owns key.
func (e *engine) ShardFor(key string) int {
	return int(strhash.FNV32a(key) % uint32(len(e.shards)))
}

func (e *engine) shardOf(key string) *shard { return e.shards[e.ShardFor(key)] }

// get returns a copy of the value at key and whether it exists.
func (e *engine) get(key string) ([]byte, bool) {
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

// put stores a copy of value at key.
func (e *engine) put(key string, value []byte) {
	v := make([]byte, len(value))
	copy(v, value)
	s := e.shardOf(key)
	s.mu.Lock()
	s.data[key] = v
	s.mu.Unlock()
}

// putAll stores copies of all items. The application is not atomic across
// shards; callers that need atomic visibility layer it above (as AFT does
// with its commit record).
func (e *engine) putAll(items map[string][]byte) {
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
func (e *engine) byShard(dst []shardKey, keys []string) []shardKey {
	for _, k := range keys {
		dst = append(dst, shardKey{e.ShardFor(k), k})
	}
	slices.SortFunc(dst, func(a, b shardKey) int { return a.shard - b.shard })
	return dst
}

// getInto stores in out a copy of the value of every present key, grouping
// the probes by shard so each shard lock is taken at most once. Missing keys
// are left out. Batches up to the stack buffer's size allocate only the
// copies (and whatever out needs to grow).
func (e *engine) getInto(out map[string][]byte, keys []string) {
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

// deleteAll removes every listed key, taking each shard lock at most once.
func (e *engine) deleteAll(keys []string) {
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

// delete removes key if present.
func (e *engine) delete(key string) {
	s := e.shardOf(key)
	s.mu.Lock()
	delete(s.data, key)
	s.mu.Unlock()
}

// list returns all keys with the given prefix in lexicographic order.
func (e *engine) list(prefix string) []string {
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
func (e *engine) Len() int {
	n := 0
	for _, s := range e.shards {
		s.mu.RLock()
		n += len(s.data)
		s.mu.RUnlock()
	}
	return n
}
