// Package baselines implements the comparison systems of the paper's
// evaluation (§6.1.2, Table 2, Figure 3, Figure 4):
//
//   - Plain: functions read and write the storage engine directly, with no
//     shim — the "Plain" bars of Figure 3 and the anomaly-prone rows of
//     Table 2;
//   - DynamoTxn: DynamoDB's transaction mode, where each function's reads
//     form one read-only transaction and all of a request's writes form a
//     single write-only transaction (the paper's adaptation, §6.1.2);
//   - AFT: the same workload executed through the shim (package faas),
//     provided here so all three run behind one Executor interface.
//
// Every executor embeds the anomaly-detection metadata of §6.1.2 (a
// timestamp, a UUID, and a cowritten key set, ~70 bytes on the 4 KB
// payload) and produces a workload.Trace for post-hoc anomaly counting.
package baselines

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"aft/internal/core"
	"aft/internal/faas"
	"aft/internal/idgen"
	"aft/internal/latency"
	"aft/internal/storage"
	"aft/internal/workload"
)

// Executor runs one logical request (a chain of functions) against some
// storage architecture and reports what it observed.
type Executor interface {
	// Name identifies the architecture ("plain", "dynamo-txn", "aft").
	Name() string
	// Execute runs req and returns the request's read trace.
	Execute(ctx context.Context, req workload.Request) (workload.Trace, error)
}

// reqCounter mints per-request UUIDs for the baseline executors.
var reqCounter atomic.Int64

func nextUUID(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, reqCounter.Add(1))
}

// versionClock stamps plain-storage writes with a global version order.
var versionClock atomic.Int64

// PlainConfig configures a Plain executor.
type PlainConfig struct {
	// Store is the storage engine written directly.
	Store storage.Store
	// Payload is the value body (4 KB in the paper).
	Payload []byte
	// Registry resolves writer UUIDs during anomaly checking.
	Registry *workload.Registry
	// Overhead models per-function invocation latency; nil adds none.
	Overhead *latency.Model
	// Sleeper injects the overhead; nil never sleeps.
	Sleeper *latency.Sleeper
}

// Plain executes requests directly against storage with no fault-tolerance
// shim: partial effects become visible immediately, which is what Table 2
// measures.
type Plain struct {
	cfg PlainConfig
}

// NewPlain returns a Plain executor.
func NewPlain(cfg PlainConfig) *Plain { return &Plain{cfg: cfg} }

// Name implements Executor.
func (p *Plain) Name() string { return "plain" }

// Execute implements Executor: each function performs its operations
// directly; writes install immediately (no atomicity).
func (p *Plain) Execute(ctx context.Context, req workload.Request) (workload.Trace, error) {
	uuid := nextUUID("plain")
	trace := workload.Trace{UUID: uuid}
	writeSet := req.WriteSet()
	written := map[string]bool{}
	registered := false
	for _, fn := range req.Funcs {
		p.cfg.Sleeper.Sleep(p.cfg.Overhead.Sample(latency.OpInvoke, 1))
		for _, op := range fn {
			switch op.Kind {
			case workload.OpWrite:
				ts := versionClock.Add(1)
				if !registered {
					// First write defines the request's version order.
					p.cfg.Registry.Register(uuid, idgen.ID{Timestamp: ts, UUID: uuid})
					registered = true
				}
				value, err := workload.Wrap(workload.Meta{TS: ts, UUID: uuid, Cowritten: writeSet}, p.cfg.Payload)
				if err != nil {
					return trace, err
				}
				if err := p.cfg.Store.Put(ctx, op.Key, value); err != nil {
					return trace, err
				}
				written[op.Key] = true
			case workload.OpRead:
				raw, err := p.cfg.Store.Get(ctx, op.Key)
				if errors.Is(err, storage.ErrNotFound) {
					continue
				}
				if err != nil {
					return trace, err
				}
				meta, _, err := workload.Unwrap(raw)
				if err != nil {
					return trace, err
				}
				trace.Reads = append(trace.Reads, workload.ReadObs{
					Key:           op.Key,
					Meta:          meta,
					AfterOwnWrite: written[op.Key],
				})
			}
		}
	}
	return trace, nil
}

// DynamoTxnConfig configures a DynamoTxn executor.
type DynamoTxnConfig struct {
	// Store must support transaction mode (storage.Transactor).
	Store storage.Store
	// Payload is the value body.
	Payload []byte
	// Registry resolves writer UUIDs during anomaly checking.
	Registry *workload.Registry
	// Overhead models per-function invocation latency; nil adds none.
	Overhead *latency.Model
	// Sleeper injects the overhead; nil never sleeps.
	Sleeper *latency.Sleeper
	// MaxRetries bounds conflict retries per transact call (DynamoDB
	// aborts proactively on conflict and clients retry, §6.1.2).
	MaxRetries int
}

// DynamoTxn executes requests with DynamoDB's transaction mode: read-only
// transactions per function, one write-only transaction for the whole
// request. RYW anomalies vanish (all writes are atomic) but reads still
// span two transactions, so fractured reads remain (§6.1.2).
type DynamoTxn struct {
	cfg DynamoTxnConfig
	txr storage.Transactor
}

// NewDynamoTxn returns a DynamoTxn executor; the store must implement
// storage.Transactor.
func NewDynamoTxn(cfg DynamoTxnConfig) (*DynamoTxn, error) {
	txr, ok := cfg.Store.(storage.Transactor)
	if !ok {
		return nil, fmt.Errorf("baselines: store %q lacks transaction mode", cfg.Store.Name())
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 256
	}
	return &DynamoTxn{cfg: cfg, txr: txr}, nil
}

// Name implements Executor.
func (d *DynamoTxn) Name() string { return "dynamo-txn" }

// Execute implements Executor.
func (d *DynamoTxn) Execute(ctx context.Context, req workload.Request) (workload.Trace, error) {
	uuid := nextUUID("dtxn")
	trace := workload.Trace{UUID: uuid}
	writeSet := req.WriteSet()

	for _, fn := range req.Funcs {
		d.cfg.Sleeper.Sleep(d.cfg.Overhead.Sample(latency.OpInvoke, 1))
		var reads []string
		for _, op := range fn {
			if op.Kind == workload.OpRead {
				reads = append(reads, op.Key)
			}
		}
		if len(reads) > 0 {
			got, err := d.transactGet(ctx, reads)
			if err != nil {
				return trace, err
			}
			for _, k := range reads {
				raw := got[k]
				if raw == nil {
					continue
				}
				meta, _, err := workload.Unwrap(raw)
				if err != nil {
					return trace, err
				}
				// AfterOwnWrite is always false: the adapted workload
				// defers every write to one transaction at request end
				// (§6.1.2), so no read ever follows a write of the same
				// request — RYW anomalies are impossible by construction
				// and the paper reports zero for transaction mode.
				trace.Reads = append(trace.Reads, workload.ReadObs{
					Key:  k,
					Meta: meta,
				})
			}
		}
	}

	// All writes in one write-only transaction at request end (§6.1.2:
	// "we grouped all writes into a single transaction to guarantee that
	// the updates are installed atomically").
	if len(writeSet) > 0 {
		ts := versionClock.Add(1)
		d.cfg.Registry.Register(uuid, idgen.ID{Timestamp: ts, UUID: uuid})
		items := make(map[string][]byte, len(writeSet))
		for _, k := range writeSet {
			value, err := workload.Wrap(workload.Meta{TS: ts, UUID: uuid, Cowritten: writeSet}, d.cfg.Payload)
			if err != nil {
				return trace, err
			}
			items[k] = value
		}
		if err := d.transactPut(ctx, items); err != nil {
			return trace, err
		}
	}
	return trace, nil
}

func (d *DynamoTxn) transactGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	for attempt := 0; attempt <= d.cfg.MaxRetries; attempt++ {
		got, err := d.txr.TransactGet(ctx, keys)
		if err == nil {
			return got, nil
		}
		if !errors.Is(err, storage.ErrConflict) {
			return nil, err
		}
		d.backoff(attempt)
	}
	return nil, fmt.Errorf("baselines: transact get: %w", storage.ErrConflict)
}

func (d *DynamoTxn) transactPut(ctx context.Context, items map[string][]byte) error {
	for attempt := 0; attempt <= d.cfg.MaxRetries; attempt++ {
		err := d.txr.TransactPut(ctx, items)
		if err == nil {
			return nil
		}
		if !errors.Is(err, storage.ErrConflict) {
			return err
		}
		d.backoff(attempt)
	}
	return fmt.Errorf("baselines: transact put: %w", storage.ErrConflict)
}

// backoff waits before a conflict retry: exponential from 2ms, capped at
// 50ms (modeled time), jitter-free for reproducibility. Without backoff,
// contending clients livelock on DynamoDB's fail-fast conflict aborts.
//
// The wait must also be real: at small Sleeper scales the modeled sleep is
// a no-op or a spin, and on >=2 cores a retry loop that never leaves the
// CPU burns all MaxRetries against an intent lock whose holder is
// descheduled. So every retry sleeps conflictRetryFloor first.
func (d *DynamoTxn) backoff(attempt int) {
	wait := time.Duration(2<<uint(min(attempt, 4))) * time.Millisecond
	if wait > 50*time.Millisecond {
		wait = 50 * time.Millisecond
	}
	time.Sleep(conflictRetryFloor)
	d.cfg.Sleeper.Sleep(wait)
}

// conflictRetryFloor is the real time every conflict retry gives the lock
// holder, whatever the modeled latency scale.
const conflictRetryFloor = 50 * time.Microsecond

// AFTConfig configures an AFT executor.
type AFTConfig struct {
	// Platform executes function chains against an AFT deployment.
	Platform *faas.Platform
	// Payload is the value body.
	Payload []byte
	// Registry receives commit IDs for anomaly checking.
	Registry *workload.Registry
}

// AFT executes requests through the shim via the FaaS platform.
type AFT struct {
	cfg AFTConfig
}

// NewAFT returns an AFT executor.
func NewAFT(cfg AFTConfig) *AFT { return &AFT{cfg: cfg} }

// Name implements Executor.
func (a *AFT) Name() string { return "aft" }

// Execute implements Executor: the request becomes a chain of FaaS
// functions sharing one AFT transaction; the commit ID is registered as the
// request's version order. The trace is rebuilt from scratch whenever the
// platform redoes the whole request.
func (a *AFT) Execute(ctx context.Context, req workload.Request) (workload.Trace, error) {
	writeSet := req.WriteSet()
	var trace workload.Trace
	build := func() []faas.Function {
		trace = workload.Trace{}
		written := map[string]bool{}
		fns := make([]faas.Function, len(req.Funcs))
		for i, ops := range req.Funcs {
			ops := ops
			fns[i] = func(fc *faas.Ctx) error {
				trace.UUID = fc.TxID()
				for _, op := range ops {
					switch op.Kind {
					case workload.OpWrite:
						value, err := workload.Wrap(workload.Meta{UUID: fc.TxID(), Cowritten: writeSet}, a.cfg.Payload)
						if err != nil {
							return err
						}
						if err := fc.Put(op.Key, value); err != nil {
							return err
						}
						written[op.Key] = true
					case workload.OpRead:
						raw, err := fc.Get(op.Key)
						if errors.Is(err, core.ErrKeyNotFound) {
							continue
						}
						if err != nil {
							return err
						}
						meta, _, err := workload.Unwrap(raw)
						if err != nil {
							return err
						}
						trace.Reads = append(trace.Reads, workload.ReadObs{
							Key:           op.Key,
							Meta:          meta,
							AfterOwnWrite: written[op.Key],
						})
					}
				}
				return nil
			}
		}
		return fns
	}
	id, err := a.cfg.Platform.InvokeBuilder(ctx, build)
	if err != nil {
		return trace, err
	}
	trace.UUID = id.UUID
	a.cfg.Registry.Register(id.UUID, id)
	return trace, nil
}
