// Package lb implements the stateless round-robin load balancer that
// fronts a set of AFT nodes (§6: "a simple stateless load balancer ... to
// route requests to aft nodes in a round-robin fashion").
//
// One detail matters for correctness: every operation of a transaction
// must reach the same AFT node (§3.1, "each transaction sends all
// operations to a single aft node"). The balancer therefore picks a node
// round-robin at StartTransaction and pins the transaction to it until
// commit or abort. If the pinned node is removed (failure), subsequent
// operations fail with ErrBackendGone and the client redoes the whole
// transaction, exactly as §3.3.1 prescribes.
package lb

import (
	"context"
	"errors"
	"sync"

	"aft/internal/idgen"
)

// Errors returned by the balancer.
var (
	// ErrNoBackends means no AFT node is currently registered.
	ErrNoBackends = errors.New("lb: no backends available")
	// ErrBackendGone means the node owning this transaction was removed;
	// the client must retry the transaction from scratch.
	ErrBackendGone = errors.New("lb: transaction's backend is gone")
	// ErrUnknownTxn means the balancer has no affinity entry for the
	// transaction ID.
	ErrUnknownTxn = errors.New("lb: unknown transaction")
)

// Backend is one AFT node as seen by the balancer. *core.Node and the wire
// client both implement it.
type Backend interface {
	ID() string
	StartTransaction(ctx context.Context) (string, error)
	Get(ctx context.Context, txid, key string) ([]byte, error)
	MultiGet(ctx context.Context, txid string, keys []string) ([][]byte, error)
	Put(ctx context.Context, txid, key string, value []byte) error
	CommitTransaction(ctx context.Context, txid string) (idgen.ID, error)
	AbortTransaction(ctx context.Context, txid string) error
}

// Balancer routes transactions across backends round-robin with per-
// transaction affinity.
type Balancer struct {
	mu       sync.Mutex
	backends []Backend
	next     int
	affinity map[string]Backend
	metrics  Metrics
}

// New returns a Balancer over the given backends.
func New(backends ...Backend) *Balancer {
	return &Balancer{
		backends: append([]Backend(nil), backends...),
		affinity: make(map[string]Backend),
	}
}

// Add registers a backend.
func (b *Balancer) Add(backend Backend) {
	b.mu.Lock()
	b.backends = append(b.backends, backend)
	b.mu.Unlock()
}

// Remove deregisters the backend with the given ID (node failure).
// In-flight transactions pinned to it will fail with ErrBackendGone: their
// affinity entries become tombstones (nil backend) so the failure is
// classified as "your node is gone, redo the transaction" (retriable,
// §3.3.1) rather than ErrUnknownTxn — while the dead Backend itself (and
// everything it keeps reachable) is released immediately. lookup reclaims
// each tombstone the first time the transaction notices.
func (b *Balancer) Remove(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, be := range b.backends {
		if be.ID() == id {
			b.backends = append(b.backends[:i], b.backends[i+1:]...)
			break
		}
	}
	for txid, be := range b.affinity {
		if be != nil && be.ID() == id {
			b.affinity[txid] = nil
		}
	}
	if len(b.backends) > 0 {
		b.next %= len(b.backends)
	} else {
		b.next = 0
	}
}

// Len returns the number of registered backends.
func (b *Balancer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.backends)
}

// pick returns the next backend in round-robin order.
func (b *Balancer) pick() (Backend, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.backends)
	if n == 0 {
		return nil, ErrNoBackends
	}
	be := b.backends[b.next]
	b.next = (b.next + 1) % n
	return be, nil
}

// lookup resolves a transaction's pinned backend.
func (b *Balancer) lookup(txid string) (Backend, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	be, ok := b.affinity[txid]
	if !ok {
		b.metrics.UnknownTxns.Add(1)
		return nil, ErrUnknownTxn
	}
	if be == nil {
		// Tombstone left by Remove: reclaim it now that the transaction
		// has seen its node die.
		delete(b.affinity, txid)
		b.metrics.BackendsGone.Add(1)
		return nil, ErrBackendGone
	}
	// Confirm it is still registered (Remove tombstones synchronously, but
	// a caller may hold a Backend from an earlier race window).
	for _, cur := range b.backends {
		if cur.ID() == be.ID() {
			b.metrics.Routed.Add(1)
			return be, nil
		}
	}
	delete(b.affinity, txid)
	b.metrics.BackendsGone.Add(1)
	return nil, ErrBackendGone
}

// StartTransaction begins a transaction on the next backend round-robin
// and pins the transaction to it.
func (b *Balancer) StartTransaction(ctx context.Context) (string, error) {
	be, err := b.pick()
	if err != nil {
		return "", err
	}
	txid, err := be.StartTransaction(ctx)
	if err != nil {
		return "", err
	}
	b.mu.Lock()
	b.affinity[txid] = be
	b.mu.Unlock()
	b.metrics.Started.Add(1)
	return txid, nil
}

// Get routes to the transaction's pinned backend.
func (b *Balancer) Get(ctx context.Context, txid, key string) ([]byte, error) {
	be, err := b.lookup(txid)
	if err != nil {
		return nil, err
	}
	return be.Get(ctx, txid, key)
}

// MultiGet routes the whole key batch to the transaction's pinned backend
// in one call. Every operation of a transaction must reach the node that
// started it (§3.1), so the batch inherits commit-style affinity rather
// than being split per key.
func (b *Balancer) MultiGet(ctx context.Context, txid string, keys []string) ([][]byte, error) {
	be, err := b.lookup(txid)
	if err != nil {
		return nil, err
	}
	return be.MultiGet(ctx, txid, keys)
}

// Put routes to the transaction's pinned backend.
func (b *Balancer) Put(ctx context.Context, txid, key string, value []byte) error {
	be, err := b.lookup(txid)
	if err != nil {
		return err
	}
	return be.Put(ctx, txid, key, value)
}

// CommitTransaction routes to the pinned backend and releases the pin.
func (b *Balancer) CommitTransaction(ctx context.Context, txid string) (idgen.ID, error) {
	be, err := b.lookup(txid)
	if err != nil {
		return idgen.Null, err
	}
	id, err := be.CommitTransaction(ctx, txid)
	if err == nil {
		b.mu.Lock()
		delete(b.affinity, txid)
		b.mu.Unlock()
	}
	return id, err
}

// AbortTransaction routes to the pinned backend and releases the pin.
func (b *Balancer) AbortTransaction(ctx context.Context, txid string) error {
	be, err := b.lookup(txid)
	if err != nil {
		return err
	}
	err = be.AbortTransaction(ctx, txid)
	b.mu.Lock()
	delete(b.affinity, txid)
	b.mu.Unlock()
	return err
}
