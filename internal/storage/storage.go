// Package storage defines the interface AFT requires from an underlying
// storage engine, together with shared errors and operation metrics.
//
// AFT's only assumption about the storage layer is durability: once a write
// is acknowledged, it survives (§3.1). It does not rely on the engine for
// consistency, visibility, or partitioning. The interface therefore exposes
// plain point operations plus optional batching, which AFT's commit protocol
// exploits when available (§6.1.1).
package storage

import (
	"context"
	"errors"
)

// Sentinel errors shared by all backends.
var (
	// ErrNotFound is returned by Get for a missing key.
	ErrNotFound = errors.New("storage: key not found")
	// ErrBatchUnsupported is returned by BatchPut on engines without a
	// multi-key write primitive (e.g. cluster-mode Redis across shards).
	ErrBatchUnsupported = errors.New("storage: batch writes unsupported")
	// ErrBatchTooLarge is returned when a batch exceeds the engine limit.
	ErrBatchTooLarge = errors.New("storage: batch exceeds engine limit")
	// ErrItemTooLarge is returned when one item exceeds the engine's item
	// size limit. Retrying the same write cannot succeed.
	ErrItemTooLarge = errors.New("storage: item exceeds engine size limit")
	// ErrConflict is returned by transaction-mode operations that lost a
	// conflict and should be retried by the caller.
	ErrConflict = errors.New("storage: transaction conflict")
	// ErrUnavailable is returned when the engine has been shut down or
	// fault injection has disabled it.
	ErrUnavailable = errors.New("storage: engine unavailable")
)

// MaxCallsInFlight bounds the requests one multi-request operation has
// outstanding at once: the storage calls of one commit write phase
// (internal/core/flush.go), and the requests a simulated engine's client
// sends for one chunked call (kvengine's fanout). Up to this many cost one
// round trip, the slowest of them; more cost one round trip per this many.
const MaxCallsInFlight = 32

// Capabilities describes what a backend can do beyond point operations.
type Capabilities struct {
	// BatchWrites reports whether BatchPut writes multiple keys in one
	// engine round trip.
	BatchWrites bool
	// MaxBatchSize bounds one BatchPut call when BatchWrites is true
	// (DynamoDB's BatchWriteItem accepts 25 items); 0 means unbounded.
	MaxBatchSize int
	// AtomicBatches reports that one BatchPut call is all-or-nothing
	// across a crash: afterwards either every item of the call is readable
	// or none is. It is a fact the engine states about itself, never a
	// setting; a wrapper that can apply part of a batch must clear it. AFT
	// reads it to write a transaction's data and its commit record in one
	// call (internal/core/flush.go) where §3.3 otherwise needs two.
	// Such an engine takes a call of any size: it reports MaxBatchSize 0,
	// so a whole flush is one call (storagetest's AtomicBatchAcrossCrash).
	AtomicBatches bool
	// Transactions reports whether the engine exposes a native
	// serializable transaction mode (DynamoDB's TransactWriteItems).
	Transactions bool
}

// Store is the storage abstraction AFT interposes on. Implementations must
// be safe for concurrent use and must not acknowledge writes before they are
// durable.
type Store interface {
	// Name identifies the backend ("dynamodb", "s3", "redis", ...).
	Name() string
	// Capabilities reports optional features.
	Capabilities() Capabilities
	// Get returns the value stored at key, or ErrNotFound.
	Get(ctx context.Context, key string) ([]byte, error)
	// Put durably stores value at key, overwriting any prior value.
	// value belongs to the caller, as BatchPut's items do: Put must not
	// mutate it, and must not retain it after it returns — AFT's flush
	// encodes every commit record into one pooled buffer (storagetest's
	// PutReleasesValue case).
	Put(ctx context.Context, key string, value []byte) error
	// BatchPut durably stores all items. Only an engine that reports
	// Capabilities().AtomicBatches applies a call whole or not at all;
	// every other engine may apply a failed or interrupted batch in part,
	// and AFT never assumes otherwise — the commit record provides atomic
	// visibility, and it shares a call with its data only on an engine
	// that reports the capability.
	// The map and its value slices belong to the caller: BatchPut must not
	// mutate them, and must not retain either after it returns — AFT's
	// flush clears and refills one map for every call (storagetest's
	// BatchPutReleasesItems case).
	BatchPut(ctx context.Context, items map[string][]byte) error
	// BatchGet returns the values of the given keys. Missing keys are
	// simply absent from the result map — never an error. Unlike BatchPut,
	// BatchGet accepts any number of keys. Each engine splits them into
	// requests its own way: DynamoDB by its 100-key BatchGetItem limit,
	// Redis one MGET per cluster shard the keys touch, S3 (no multi-object
	// read) one point GET per key. The simulators follow one rule for
	// every chunked call, as a real client does: all requests go out at
	// once, at most MaxCallsInFlight outstanding, so a call of up to that
	// many requests waits one round trip, the slowest of them (4 keys over
	// Redis's 2 shards wait one MGET, not two). The WAL reads every key
	// under one lock hold: one disk visit.
	// The returned map and its values belong to the caller. AFT's read
	// pipeline uses BatchGet for commit-record recovery and MultiGet
	// payload fetches.
	BatchGet(ctx context.Context, keys []string) (map[string][]byte, error)
	// BatchDelete removes all keys, chunking by the engine's delete-batch
	// limit (S3's 1 000-key DeleteObjects, DynamoDB's 25-key BatchWriteItem
	// delete requests, one Redis DEL per shard) and sending the chunks as
	// BatchGet does, together; missing keys are not an error. The global
	// GC uses it to retire many superseded versions per round trip.
	BatchDelete(ctx context.Context, keys []string) error
	// Delete removes key; deleting a missing key is not an error.
	Delete(ctx context.Context, key string) error
	// List returns, in lexicographic order, every key with the prefix.
	List(ctx context.Context, prefix string) ([]string, error)
}

// Transactor is the optional serializable transaction-mode interface
// (modeled on DynamoDB's transaction API, which AFT is compared against in
// §6.1.2). Transactions are read-only or write-only, never mixed.
type Transactor interface {
	// TransactGet atomically reads all keys; missing keys yield nil
	// entries. Returns ErrConflict if the transaction lost a conflict.
	TransactGet(ctx context.Context, keys []string) (map[string][]byte, error)
	// TransactPut atomically writes all items or none, returning
	// ErrConflict if the transaction lost a conflict.
	TransactPut(ctx context.Context, items map[string][]byte) error
}
