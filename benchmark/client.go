package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"aft/aft"
)

// lastWrite is a client's newest acknowledged write of one key.
type lastWrite struct {
	id  aft.ID
	seq int32
}

// client is one closed-loop caller: it owns a script, issues the next
// transaction only after the previous one returned, and remembers what it
// was acknowledged so the run can be checked afterwards.
type client struct {
	id     int
	ks     *keyspace
	shape  txnShape
	script *script

	next int // next script transaction
	seq  int // transactions started, stamped into every value written

	lat  []int64     // whole-transaction latencies of the current phase, ns
	last []lastWrite // by key index; null id = never written by this client

	committed, failed int
	firstErr          error
	puts              int // acknowledged Puts since the deployment was built

	names []string // MultiGet scratch
	trace *tracedClient
}

func newClient(id int, ks *keyspace, shape txnShape, s *script) *client {
	return &client{
		id: id, ks: ks, shape: shape, script: s,
		last:  make([]lastWrite, len(ks.names)),
		names: make([]string, 0, 4),
	}
}

// resetPhase clears the per-phase tallies, keeping the latency buffer.
func (c *client) resetPhase() {
	c.lat = c.lat[:0]
	c.committed, c.failed = 0, 0
}

var (
	errMalformed  = errors.New("value read is malformed (wrong length or names another key)")
	errNullCommit = errors.New("commit returned a null ID")
)

// runTxn issues one scripted transaction against h. Every read is checked
// for shape on the spot (two compares); stronger checks run after timing.
func (c *client) runTxn(ctx context.Context, h aft.Client) error {
	keys := c.script.txnKeys(c.next)
	c.next++
	c.seq++
	txid, err := h.StartTransaction(ctx)
	if err != nil {
		return err
	}
	if err := c.body(ctx, h, txid, keys); err != nil {
		_ = h.AbortTransaction(ctx, txid) // already failing; the first error is the one reported
		return err
	}
	id, err := h.CommitTransaction(ctx, txid)
	if err != nil {
		_ = h.AbortTransaction(ctx, txid)
		return err
	}
	if id.IsNull() {
		return errNullCommit
	}
	c.puts += c.shape.putsPerTxn()
	switch c.shape {
	case shapePaperMix:
		c.last[keys[0]] = lastWrite{id, int32(c.seq)}
		c.last[keys[3]] = lastWrite{id, int32(c.seq)}
	case shapeWriteOnly:
		c.last[keys[0]] = lastWrite{id, int32(c.seq)}
		c.last[keys[1]] = lastWrite{id, int32(c.seq)}
	}
	return nil
}

func (c *client) body(ctx context.Context, h aft.Client, txid string, keys []uint32) error {
	put := func(k uint32) error {
		return h.Put(ctx, txid, c.ks.names[k], c.ks.value(k, c.id, c.seq))
	}
	get := func(k uint32) error {
		v, err := h.Get(ctx, txid, c.ks.names[k])
		if err != nil {
			return err
		}
		if !c.ks.wellFormed(k, v) {
			return errMalformed
		}
		return nil
	}
	switch c.shape {
	case shapePaperMix:
		for f := 0; f < 6; f += 3 {
			if err := put(keys[f]); err != nil {
				return err
			}
			if err := get(keys[f+1]); err != nil {
				return err
			}
			if err := get(keys[f+2]); err != nil {
				return err
			}
		}
	case shapeWriteOnly:
		if err := put(keys[0]); err != nil {
			return err
		}
		return put(keys[1])
	case shapeReadOnly:
		c.names = c.names[:0]
		for _, k := range keys[:4] {
			c.names = append(c.names, c.ks.names[k])
		}
		vs, err := h.MultiGet(ctx, txid, c.names)
		if err != nil {
			return err
		}
		if len(vs) != 4 {
			return errMalformed
		}
		for i, v := range vs {
			if !c.ks.wellFormed(keys[i], v) {
				return errMalformed
			}
		}
		if err := get(keys[4]); err != nil {
			return err
		}
		return get(keys[5])
	}
	return nil
}

// loop runs scripted transactions until stop returns true (checked between
// transactions), recording each one's latency.
func (c *client) loop(ctx context.Context, h aft.Client, stop func(done int, now time.Time) bool) {
	tc := c.trace
	if tc != nil {
		h = tc
	}
	for n := 0; ; n++ {
		start := time.Now()
		if stop(n, start) {
			return
		}
		if tc != nil {
			tc.txn = int32(c.seq + 1)
		}
		err := c.runTxn(ctx, h)
		d := time.Since(start)
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("client %d txn %d: %w", c.id, c.seq, err)
			}
			continue
		}
		c.committed++
		c.lat = append(c.lat, int64(d))
		if tc != nil {
			tc.record(spanTxn, start, d)
		}
	}
}

// preloadBatch is the number of keys one preload transaction writes.
const preloadBatch = 50

// preload writes this client's share of the keyspace (every key whose index
// is ≡ id mod stride) in preloadBatch-key transactions.
func (c *client) preload(ctx context.Context, h aft.Client, stride int) error {
	var batch []uint32
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		c.seq++
		txid, err := h.StartTransaction(ctx)
		if err != nil {
			return err
		}
		for _, k := range batch {
			if err := h.Put(ctx, txid, c.ks.names[k], c.ks.value(k, c.id, c.seq)); err != nil {
				return err
			}
		}
		id, err := h.CommitTransaction(ctx, txid)
		if err != nil {
			return err
		}
		if id.IsNull() {
			return errNullCommit
		}
		for _, k := range batch {
			c.last[k] = lastWrite{id, int32(c.seq)}
		}
		c.puts += len(batch)
		batch = batch[:0]
		return nil
	}
	for k := c.id; k < len(c.ks.names); k += stride {
		batch = append(batch, uint32(k))
		if len(batch) == preloadBatch {
			if err := flush(); err != nil {
				return fmt.Errorf("preload client %d: %w", c.id, err)
			}
		}
	}
	if err := flush(); err != nil {
		return fmt.Errorf("preload client %d: %w", c.id, err)
	}
	return nil
}

// tracedClient decorates the handle one client calls, recording a span per
// operation into that client's own preallocated buffer.
type tracedClient struct {
	inner   aft.Client
	log     *spanLog // epoch only; spans go to the client's own buffer
	id      int16
	txn     int32
	spans   []span
	dropped int
}

func (t *tracedClient) record(kind spanKind, start time.Time, d time.Duration) {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{kind: kind, client: t.id, txn: t.txn, start: t.log.since(start), dur: int64(d)})
}

func (t *tracedClient) StartTransaction(ctx context.Context) (string, error) {
	s := time.Now()
	id, err := t.inner.StartTransaction(ctx)
	t.record(spanStart, s, time.Since(s))
	return id, err
}

func (t *tracedClient) Get(ctx context.Context, txid, key string) ([]byte, error) {
	s := time.Now()
	v, err := t.inner.Get(ctx, txid, key)
	t.record(spanGet, s, time.Since(s))
	return v, err
}

func (t *tracedClient) MultiGet(ctx context.Context, txid string, keys []string) ([][]byte, error) {
	s := time.Now()
	v, err := t.inner.MultiGet(ctx, txid, keys)
	t.record(spanMultiGet, s, time.Since(s))
	return v, err
}

func (t *tracedClient) Put(ctx context.Context, txid, key string, value []byte) error {
	s := time.Now()
	err := t.inner.Put(ctx, txid, key, value)
	t.record(spanPut, s, time.Since(s))
	return err
}

func (t *tracedClient) CommitTransaction(ctx context.Context, txid string) (aft.ID, error) {
	s := time.Now()
	id, err := t.inner.CommitTransaction(ctx, txid)
	t.record(spanCommit, s, time.Since(s))
	return id, err
}

func (t *tracedClient) AbortTransaction(ctx context.Context, txid string) error {
	return t.inner.AbortTransaction(ctx, txid)
}

// verifyReadback checks, through fresh transactions on h, that every key
// any client was acknowledged a write of now reads back as the newest of
// those writes (highest commit ID), byte for byte. It returns how many keys
// it checked.
func verifyReadback(ctx context.Context, h aft.Client, ks *keyspace, clients []*client) (int, error) {
	type winner struct {
		lastWrite
		key    uint32
		client int
	}
	var keys []winner
	for k := range ks.names {
		w := winner{key: uint32(k)}
		for _, c := range clients {
			if lw := c.last[k]; !lw.id.IsNull() && (w.id.IsNull() || w.id.Less(lw.id)) {
				w.lastWrite, w.client = lw, c.id
			}
		}
		if !w.id.IsNull() {
			keys = append(keys, w)
		}
	}
	// Read back in preloadBatch-key transactions, a few at a time: enough
	// overlap that a latency-injected store does not make this the longest
	// phase, few enough to stay a check and not a load.
	const readers = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			names := make([]string, 0, preloadBatch)
			for off := r * preloadBatch; off < len(keys); off += readers * preloadBatch {
				chunk := keys[off:min(off+preloadBatch, len(keys))]
				names = names[:0]
				for _, w := range chunk {
					names = append(names, ks.names[w.key])
				}
				txid, err := h.StartTransaction(ctx)
				if err != nil {
					fail(fmt.Errorf("readback start: %w", err))
					return
				}
				vs, err := h.MultiGet(ctx, txid, names)
				if err != nil {
					_ = h.AbortTransaction(ctx, txid) // the read's error is the one reported
					fail(fmt.Errorf("readback of %d keys from %s: %w", len(names), names[0], err))
					return
				}
				if _, err := h.CommitTransaction(ctx, txid); err != nil {
					fail(fmt.Errorf("readback commit: %w", err))
					return
				}
				for i, w := range chunk {
					if want := ks.value(w.key, w.client, int(w.seq)); !bytes.Equal(vs[i], want) {
						fail(fmt.Errorf("readback of %s: got stamp %q, want %q (client %d's acked write %s)",
							ks.names[w.key], head(vs[i]), head(want), w.client, w.id))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	return len(keys), firstErr
}

// head returns the header-and-stamp prefix of a value for error messages.
func head(v []byte) []byte {
	if len(v) > 32 {
		return v[:32]
	}
	return v
}
