package core

import (
	"sync"
	"sync/atomic"

	"aft/internal/strhash"
)

// dataCache is the node's read cache for key-version payloads (§3.1): it
// stores values for a subset of the versions in the metadata cache, keyed
// by storage key, with LRU eviction. Because AFT never overwrites a key
// version in place, cached entries can never be stale — eviction exists
// purely to bound memory.
//
// The cache is sharded by storage-key hash so parallel readers do not
// serialize on one LRU lock; each shard keeps its own recency list and an
// equal slice of the capacity.
//
// A cached value is never written after it enters the cache, and readers
// get a copy appended to a buffer of their own (appendTo). So the cache may
// adopt a slice nobody else will write — the commit's private write buffer,
// a payload freshly read from storage — instead of copying it. Probes
// (appendTo, evict) take the storage key as bytes the caller assembled in
// a buffer of its own, so a hit builds no key string.
//
// An entry's key may be a slice of a longer string: a MultiGet fetch
// builds the storage keys of all its misses as one string. Such an entry
// keeps that whole string alive, a few hundred bytes beside a value that
// is usually larger, until it is evicted.
type dataCache struct {
	shards []*cacheShard
	mask   uint32
}

// cacheShardCount is the shard count (power of two) for large caches;
// sized like the metadata stripes to keep reader collisions rare at high
// core counts. Small caches stay on one shard: per-shard LRU is only a
// faithful approximation of global LRU when each shard holds many entries,
// and exact eviction order matters more than lock spread at tiny sizes.
const (
	cacheShardCount    = 16
	cacheShardMinTotal = 256
)

// cacheShard is one LRU: entries live in slots, linked into a recency list
// by slot index, so an insert reuses a free or evicted slot instead of
// allocating a list node.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	index map[string]int32 // storage key → slot
	slots []cacheSlot
	// head and tail are the most and least recently used slots; free
	// chains unused slots through next. -1 ends each.
	head, tail, free int32
	// bytes sums cached key and value lengths; written under mu, read
	// atomically by cross-shard budget checks.
	bytes atomic.Int64
}

type cacheSlot struct {
	key        string
	value      []byte
	prev, next int32
}

// newDataCache returns a cache bounded to capacity entries in total.
func newDataCache(capacity int) *dataCache {
	if capacity < 1 {
		capacity = 1
	}
	nshards := 1
	if capacity >= cacheShardMinTotal {
		nshards = cacheShardCount
	}
	perShard := capacity / nshards
	c := &dataCache{shards: make([]*cacheShard, nshards), mask: uint32(nshards - 1)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:   perShard,
			index: make(map[string]int32),
			head:  -1, tail: -1, free: -1,
		}
	}
	return c
}

func (c *dataCache) shardFor(hash uint32) *cacheShard {
	return c.shards[hash&c.mask]
}

// appendTo appends the value cached under storageKey to dst, reporting
// whether one was cached. With a nil dst the result is a fresh copy
// (non-nil even for an empty value).
func (c *dataCache) appendTo(storageKey, dst []byte) ([]byte, bool) {
	if c == nil {
		return dst, false
	}
	s := c.shardFor(strhash.FNV32a(storageKey))
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[string(storageKey)]
	if !ok {
		return dst, false
	}
	s.moveToFrontLocked(i)
	return appendValue(dst, s.slots[i].value), true
}

// appendValue appends v to dst. A nil dst gets a buffer of exactly
// len(v), non-nil even when v is empty, so an empty value still reads
// back as present.
func appendValue(dst, v []byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, len(v))
	}
	return append(dst, v...)
}

// adopt caches value itself: the caller hands over a slice that nobody
// will write again.
func (c *dataCache) adopt(storageKey string, value []byte) {
	if c == nil {
		return
	}
	s := c.shardFor(strhash.FNV32a(storageKey))
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[storageKey]; ok {
		sl := &s.slots[i]
		s.bytes.Add(int64(len(value) - len(sl.value)))
		sl.value = value
		s.moveToFrontLocked(i)
		return
	}
	for len(s.index) >= s.cap {
		if !s.dropOldestLocked() {
			break
		}
	}
	i := s.free
	if i >= 0 {
		s.free = s.slots[i].next
	} else {
		i = int32(len(s.slots))
		s.slots = append(s.slots, cacheSlot{})
	}
	s.slots[i] = cacheSlot{key: storageKey, value: value, prev: -1, next: -1}
	s.pushFrontLocked(i)
	s.index[storageKey] = i
	s.bytes.Add(int64(len(storageKey) + len(value)))
}

func (s *cacheShard) pushFrontLocked(i int32) {
	sl := &s.slots[i]
	sl.prev, sl.next = -1, s.head
	if s.head >= 0 {
		s.slots[s.head].prev = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}

func (s *cacheShard) unlinkLocked(i int32) {
	sl := &s.slots[i]
	if sl.prev >= 0 {
		s.slots[sl.prev].next = sl.next
	} else {
		s.head = sl.next
	}
	if sl.next >= 0 {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.tail = sl.prev
	}
}

func (s *cacheShard) moveToFrontLocked(i int32) {
	if s.head != i {
		s.unlinkLocked(i)
		s.pushFrontLocked(i)
	}
}

// removeLocked drops slot i's entry and frees the slot, keeping no
// reference to its key or value.
func (s *cacheShard) removeLocked(i int32) {
	s.unlinkLocked(i)
	sl := &s.slots[i]
	delete(s.index, sl.key)
	s.bytes.Add(-int64(len(sl.key) + len(sl.value)))
	*sl = cacheSlot{next: s.free}
	s.free = i
}

// dropOldestLocked evicts the shard's least recently used entry,
// reporting whether one existed. Callers hold s.mu.
func (s *cacheShard) dropOldestLocked() bool {
	if s.tail < 0 {
		return false
	}
	s.removeLocked(s.tail)
	return true
}

// evict removes storageKey if cached.
func (c *dataCache) evict(storageKey []byte) {
	if c == nil {
		return
	}
	s := c.shardFor(strhash.FNV32a(storageKey))
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[string(storageKey)]; ok {
		s.removeLocked(i)
	}
}

// len returns the number of cached entries.
func (c *dataCache) len() int {
	if c == nil {
		return 0
	}
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += len(s.index)
		s.mu.Unlock()
	}
	return total
}

// byteSize returns the approximate bytes held by cached payloads.
func (c *dataCache) byteSize() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for _, s := range c.shards {
		total += s.bytes.Load()
	}
	return total
}
