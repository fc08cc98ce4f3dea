package kvengine

import (
	"context"
	"sync"

	"aft/internal/latency"
	"aft/internal/storage"
)

// DynamoDB is a simulated DynamoDB table: the DynamoDB profile's Store
// plus the serializable transaction mode that aborts on conflict, the
// baseline AFT is compared against (§6.1.2, §6.2). It implements
// storage.Store and storage.Transactor.
type DynamoDB struct {
	*Store

	mu      sync.Mutex
	readers map[string]int
	writers map[string]bool
}

var (
	_ storage.Store      = (*DynamoDB)(nil)
	_ storage.Transactor = (*DynamoDB)(nil)
)

// NewDynamoDB returns an empty simulated table: durable point operations,
// 25-item batch writes, a 400 KB item limit and a transaction mode.
func NewDynamoDB(opts Options) *DynamoDB {
	return &DynamoDB{
		Store:   newStore(dynamoDBProfile, opts),
		readers: make(map[string]int),
		writers: make(map[string]bool),
	}
}

// lockForTxn acquires transaction-mode intent locks for keys. Reads conflict
// with in-flight writers; writes conflict with in-flight readers and
// writers. Conflicts fail fast with storage.ErrConflict — DynamoDB
// "proactively aborts transactions in the case of conflict" (§6.1.2) and
// clients retry.
func (s *DynamoDB) lockForTxn(keys []string, write bool) (func(), error) {
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
func (s *DynamoDB) TransactGet(ctx context.Context, keys []string) (map[string][]byte, error) {
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
		if v, ok := s.get(k); ok {
			out[k] = v
		} else {
			out[k] = nil
		}
	}
	return out, nil
}

// TransactPut implements storage.Transactor: an atomic, serializable
// multi-key write (all items or none).
func (s *DynamoDB) TransactPut(ctx context.Context, items map[string][]byte) error {
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
	s.putAll(items)
	return nil
}
