package main

import (
	"context"
	"sync/atomic"
	"time"

	"aft/aft"
)

// storeCounts is what the store decorator saw, indexed by the storage span
// kinds: calls, the items they carried (1 for a point operation), and the
// bytes handed to Put and BatchPut.
type storeCounts struct {
	calls, items [numSpanKinds]int64
	bytesWritten int64
}

func (c storeCounts) totalCalls() int64 {
	var n int64
	for _, v := range c.calls {
		n += v
	}
	return n
}

func (c storeCounts) sub(p storeCounts) storeCounts {
	for k := range c.calls {
		c.calls[k] -= p.calls[k]
		c.items[k] -= p.items[k]
	}
	c.bytesWritten -= p.bytesWritten
	return c
}

// tracedStore decorates the aft.Store handed to a deployment. It is how
// the storage layer is measured from outside: every call is counted, and
// while a span log is attached every call is also timed and recorded as a
// storage.* span. With no log attached a call costs one atomic load and a
// few atomic adds over the bare store.
type tracedStore struct {
	aft.Store
	log atomic.Pointer[spanLog]

	calls, items [numSpanKinds]atomic.Int64
	bytesWritten atomic.Int64
}

func newTracedStore(inner aft.Store) *tracedStore { return &tracedStore{Store: inner} }

// attach starts (l != nil) or stops (nil) span recording.
func (s *tracedStore) attach(l *spanLog) { s.log.Store(l) }

func (s *tracedStore) counts() storeCounts {
	var c storeCounts
	for k := range c.calls {
		c.calls[k] = s.calls[k].Load()
		c.items[k] = s.items[k].Load()
	}
	c.bytesWritten = s.bytesWritten.Load()
	return c
}

// storeCall is one call in flight through the decorator.
type storeCall struct {
	log   *spanLog // nil when not tracing
	kind  spanKind
	items int
	start time.Time
}

// begin counts the call and, when tracing, notes its start time.
func (s *tracedStore) begin(kind spanKind, items int) storeCall {
	s.calls[kind].Add(1)
	s.items[kind].Add(int64(items))
	c := storeCall{log: s.log.Load(), kind: kind, items: items}
	if c.log != nil {
		c.start = time.Now()
	}
	return c
}

// end records the call's span; bytes is only asked for when tracing, after
// the clock has been read, so sizing a reply is not charged to the store.
func (c storeCall) end(bytes func() int64) {
	if c.log == nil {
		return
	}
	d := time.Since(c.start)
	c.log.add(span{kind: c.kind, client: -1, start: c.log.since(c.start), dur: int64(d),
		items: int32(c.items), bytes: bytes()})
}

func noBytes() int64 { return 0 }

func (s *tracedStore) Get(ctx context.Context, key string) ([]byte, error) {
	c := s.begin(spanStoreGet, 1)
	v, err := s.Store.Get(ctx, key)
	c.end(func() int64 { return int64(len(v)) })
	return v, err
}

func (s *tracedStore) Put(ctx context.Context, key string, value []byte) error {
	s.bytesWritten.Add(int64(len(value)))
	c := s.begin(spanStorePut, 1)
	err := s.Store.Put(ctx, key, value)
	c.end(func() int64 { return int64(len(value)) })
	return err
}

func (s *tracedStore) BatchPut(ctx context.Context, items map[string][]byte) error {
	var bytes int64
	for _, v := range items {
		bytes += int64(len(v))
	}
	s.bytesWritten.Add(bytes)
	c := s.begin(spanStoreBatchPut, len(items))
	err := s.Store.BatchPut(ctx, items)
	c.end(func() int64 { return bytes })
	return err
}

func (s *tracedStore) BatchGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	c := s.begin(spanStoreBatchGet, len(keys))
	out, err := s.Store.BatchGet(ctx, keys)
	c.end(func() int64 {
		var bytes int64
		for _, v := range out {
			bytes += int64(len(v))
		}
		return bytes
	})
	return out, err
}

func (s *tracedStore) BatchDelete(ctx context.Context, keys []string) error {
	c := s.begin(spanStoreBatchDelete, len(keys))
	err := s.Store.BatchDelete(ctx, keys)
	c.end(noBytes)
	return err
}

func (s *tracedStore) Delete(ctx context.Context, key string) error {
	c := s.begin(spanStoreDelete, 1)
	err := s.Store.Delete(ctx, key)
	c.end(noBytes)
	return err
}

func (s *tracedStore) List(ctx context.Context, prefix string) ([]string, error) {
	c := s.begin(spanStoreList, 0)
	out, err := s.Store.List(ctx, prefix)
	c.items = len(out)
	c.end(noBytes)
	return out, err
}
