package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"aft/internal/checker"
	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/retry"
	"aft/internal/storage"
	"aft/internal/workload"
)

// Client is the transactional surface the runner drives: a *core.Node, a
// cluster's load balancer, or a wire client.
type Client interface {
	StartTransaction(ctx context.Context) (string, error)
	Get(ctx context.Context, txid, key string) ([]byte, error)
	Put(ctx context.Context, txid, key string, value []byte) error
	CommitTransaction(ctx context.Context, txid string) (idgen.ID, error)
	AbortTransaction(ctx context.Context, txid string) error
}

// Retriable classifies errors after which a request should be redone with
// a fresh transaction — the shared §3.3.1 discipline (internal/retry),
// which injected chaos failures satisfy via storage.ErrUnavailable.
func Retriable(err error) bool { return retry.Retriable(err) }

// RunnerMetrics counts runner activity.
type RunnerMetrics struct {
	Requests      atomic.Int64 // logical requests completed
	Commits       atomic.Int64 // committed requests (== Requests on success)
	Redos         atomic.Int64 // whole-request redos (fresh transaction)
	CommitRetries atomic.Int64 // same-transaction idempotent commit retries
}

// RunnerMetricsSnapshot is a point-in-time copy of RunnerMetrics.
type RunnerMetricsSnapshot struct {
	Requests, Commits, Redos, CommitRetries int64
}

// Snapshot returns a copy of the counters.
func (m *RunnerMetrics) Snapshot() RunnerMetricsSnapshot {
	return RunnerMetricsSnapshot{
		Requests: m.Requests.Load(), Commits: m.Commits.Load(),
		Redos: m.Redos.Load(), CommitRetries: m.CommitRetries.Load(),
	}
}

// A Runner redoes one request at most maxRedos times, and retries one
// transaction's commit on transient errors at most maxCommitRetries times.
const (
	maxRedos         = 64
	maxCommitRetries = 8
)

// Runner executes workload requests against a Client with the paper's
// §3.3.1 fault-tolerance discipline — redo-until-commit — while recording
// the observable history into a checker.Recorder:
//
//   - every attempt's reads become a trace (failed attempts' reads are
//     observations too and must satisfy the same guarantees);
//   - writes embed §6.1.2 anomaly metadata (the attempt's transaction ID
//     and the request's cowritten set);
//   - a commit that fails with a transient error is first retried under
//     the SAME transaction ID (commits are idempotent, §3.1); only a lost
//     transaction forces a fresh redo;
//   - an attempt whose commit outcome stays unknown is recorded as
//     indeterminate, to be settled by the checker's storage ground truth.
//
// Safe for concurrent use by many workload goroutines.
type Runner struct {
	// Client is the transactional backend. Required.
	Client Client
	// Payload is the value body (wrapped with anomaly metadata).
	Payload []byte
	// Check records the history; nil disables recording.
	Check *checker.Recorder

	metrics RunnerMetrics
}

// Metrics returns the runner's counters.
func (r *Runner) Metrics() *RunnerMetrics { return &r.metrics }

// Do executes one logical request, redoing it with a fresh transaction
// after retriable failures until it commits (or the redo budget is spent).
func (r *Runner) Do(ctx context.Context, req workload.Request) error {
	var lastErr error
	for redo := 0; redo <= maxRedos; redo++ {
		if redo > 0 {
			r.metrics.Redos.Add(1)
		}
		err := r.attempt(ctx, req)
		if err == nil {
			r.metrics.Requests.Add(1)
			return nil
		}
		lastErr = err
		if !Retriable(err) {
			return err
		}
	}
	return fmt.Errorf("chaos: request failed after %d redos: %w", maxRedos, lastErr)
}

// attempt runs one request attempt under a fresh transaction.
func (r *Runner) attempt(ctx context.Context, req workload.Request) error {
	txid, err := r.Client.StartTransaction(ctx)
	if err != nil {
		return err
	}
	writeSet := req.WriteSet()
	tr := workload.Trace{UUID: txid}
	written := make(map[string]bool)
	fail := func(opErr error) error {
		// The attempt never reached a commit call, so it definitively did
		// not commit; its reads still join the history.
		_ = r.Client.AbortTransaction(ctx, txid)
		if r.Check != nil {
			r.Check.RecordTrace(tr)
			r.Check.RecordAbort(txid)
		}
		return opErr
	}
	for _, fn := range req.Funcs {
		for _, op := range fn {
			switch op.Kind {
			case workload.OpWrite:
				value, err := workload.Wrap(workload.Meta{UUID: txid, Cowritten: writeSet}, r.Payload)
				if err != nil {
					return fail(err)
				}
				if err := r.Client.Put(ctx, txid, op.Key, value); err != nil {
					return fail(err)
				}
				written[op.Key] = true
			case workload.OpRead:
				raw, err := r.Client.Get(ctx, txid, op.Key)
				if errors.Is(err, core.ErrKeyNotFound) {
					continue // NULL version: the key does not exist yet
				}
				if err != nil {
					return fail(err)
				}
				m, _, err := workload.Unwrap(raw)
				if err != nil {
					return fail(fmt.Errorf("chaos: corrupt value at %q: %w", op.Key, err))
				}
				tr.Reads = append(tr.Reads, workload.ReadObs{
					Key: op.Key, Meta: m, AfterOwnWrite: written[op.Key],
				})
			}
		}
	}

	id, err := r.commit(ctx, txid)
	if r.Check != nil {
		r.Check.RecordTrace(tr)
	}
	if err != nil {
		// The commit call failed after retries. Abort the still-live
		// transaction so a redo does not leak its concurrency slot and
		// reader pins — and let the abort's answer settle the outcome: a
		// clean abort proves the commit never happened; ErrTxnFinished
		// proves it DID (the node answered but the response was lost), in
		// which case the idempotent commit retry recovers the ID and the
		// request actually succeeded. Anything else stays unknown for the
		// checker's storage ground truth.
		switch aerr := r.Client.AbortTransaction(ctx, txid); {
		case aerr == nil:
			if r.Check != nil {
				r.Check.RecordAbort(txid)
			}
		case errors.Is(aerr, core.ErrTxnFinished):
			if id, cerr := r.Client.CommitTransaction(ctx, txid); cerr == nil {
				if r.Check != nil {
					r.Check.RecordCommit(txid, id, writeSet)
				}
				r.metrics.Commits.Add(1)
				return nil
			}
			fallthrough
		default:
			if r.Check != nil {
				r.Check.RecordIndeterminate(txid)
			}
		}
		return err
	}
	if r.Check != nil {
		r.Check.RecordCommit(txid, id, writeSet)
	}
	r.metrics.Commits.Add(1)
	return nil
}

// commit runs CommitTransaction with idempotent same-transaction retries
// on transient failures (§3.1): a commit whose first attempt failed before
// the record was durable simply re-runs; one that actually succeeded
// returns the original commit ID.
func (r *Runner) commit(ctx context.Context, txid string) (idgen.ID, error) {
	id, err := r.Client.CommitTransaction(ctx, txid)
	for retries := 0; err != nil && retries < maxCommitRetries && errors.Is(err, storage.ErrUnavailable); retries++ {
		r.metrics.CommitRetries.Add(1)
		id, err = r.Client.CommitTransaction(ctx, txid)
	}
	return id, err
}

// FinalState reads every key through one fresh transaction per batch and
// returns the observed metadata (absent keys omitted) — the input to the
// checker's lost-write pass. Call it after the system quiesces, with fault
// injection disabled; retriable failures redo the whole pass.
func (r *Runner) FinalState(ctx context.Context, keys []string) (map[string]workload.Meta, error) {
	var lastErr error
	for redo := 0; redo < 8; redo++ {
		final, err := r.finalStateOnce(ctx, keys)
		if err == nil {
			return final, nil
		}
		lastErr = err
		if !Retriable(err) {
			return nil, err
		}
	}
	return nil, fmt.Errorf("chaos: final-state read failed: %w", lastErr)
}

func (r *Runner) finalStateOnce(ctx context.Context, keys []string) (map[string]workload.Meta, error) {
	txid, err := r.Client.StartTransaction(ctx)
	if err != nil {
		return nil, err
	}
	defer func() { _ = r.Client.AbortTransaction(ctx, txid) }()
	final := make(map[string]workload.Meta, len(keys))
	for _, k := range keys {
		raw, err := r.Client.Get(ctx, txid, k)
		if errors.Is(err, core.ErrKeyNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		m, _, err := workload.Unwrap(raw)
		if err != nil {
			return nil, fmt.Errorf("chaos: corrupt value at %q: %w", k, err)
		}
		final[k] = m
	}
	return final, nil
}
