// Package chaos is a deterministic, seed-driven fault-injection harness
// for AFT: a storage.Store wrapper that injects transient errors, partial
// batch failures, latency spikes, and scheduled crash points; a
// redo-until-commit workload runner that feeds the history checker
// (internal/checker); and a kill/restart scheduler that drives node
// crashes, standby promotion, and fault-manager recovery mid-workload.
//
// Determinism contract: with faults enabled, every storage operation draws
// a fixed number of samples from one seeded source, so a workload that
// issues a deterministic operation SEQUENCE (a single driver goroutine, or
// any phase where only one goroutine touches storage) sees bit-for-bit
// identical fault decisions run over run. Partial-batch key selection is
// derived from key hashes, not draws, so it is independent of Go's map
// iteration order. Concurrent workloads (the -race stress tests) lose
// sequence determinism but keep the same fault distribution.
//
// Injected failures are fail-stop per operation: an injected error means
// the underlying engine did not perform the failed (portion of the)
// operation. Partial batch failures apply a deterministic subset of the
// batch and then fail — exactly the non-atomic batch behaviour
// storage.Store permits and AFT's commit protocol (§3.3 of the paper) must
// tolerate.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aft/internal/latency"
	"aft/internal/storage"
	"aft/internal/strhash"
)

// ErrInjected marks every chaos-injected failure. Injected errors also
// match storage.ErrUnavailable, so they cross the wire protocol as the
// retriable ErrCodeUnavailable and clients exercise their real transient-
// error handling.
var ErrInjected = errors.New("chaos: injected fault")

// errTransient is the shared wrap target: errors.Is matches both
// ErrInjected and storage.ErrUnavailable.
var errTransient = fmt.Errorf("%w: %w", storage.ErrUnavailable, ErrInjected)

// Config parameterizes fault injection. All rates are probabilities in
// [0, 1] applied per storage operation.
type Config struct {
	// Seed drives every injection decision.
	Seed int64
	// ErrorRate is the transient full-failure probability: the operation
	// fails before the engine applies anything.
	ErrorRate float64
	// PartialRate is the partial-failure probability for batch operations
	// (BatchPut, BatchGet, BatchDelete): a deterministic subset of the
	// keys is applied, the rest fail, and the call returns an error.
	PartialRate float64
	// SpikeRate is the latency-spike probability.
	SpikeRate float64
	// Spike is the injected spike duration (modeled time, scaled by
	// Sleeper); 0 defaults to 50ms.
	Spike time.Duration
	// Sleeper injects spikes; nil never sleeps (spikes still count).
	Sleeper *latency.Sleeper
}

// Metrics counts injected faults. All fields are atomic.
type Metrics struct {
	Ops                 atomic.Int64 // operations that passed through the wrapper
	Errors              atomic.Int64 // transient full failures injected
	PartialBatchPuts    atomic.Int64 // BatchPut calls partially applied then failed
	PartialBatchGets    atomic.Int64 // BatchGet calls partially answered then failed
	PartialBatchDeletes atomic.Int64 // BatchDelete calls partially applied then failed
	Spikes              atomic.Int64 // latency spikes injected
	Crashes             atomic.Int64 // crash hooks fired
}

// MetricsSnapshot is a point-in-time copy of Metrics.
type MetricsSnapshot struct {
	Ops, Errors, PartialBatchPuts, PartialBatchGets,
	PartialBatchDeletes, Spikes, Crashes int64
}

// Snapshot returns a copy of the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Ops: m.Ops.Load(), Errors: m.Errors.Load(),
		PartialBatchPuts: m.PartialBatchPuts.Load(), PartialBatchGets: m.PartialBatchGets.Load(),
		PartialBatchDeletes: m.PartialBatchDeletes.Load(),
		Spikes:              m.Spikes.Load(), Crashes: m.Crashes.Load(),
	}
}

// crashHook is one scheduled crash point.
type crashHook struct {
	at int64
	fn func()
}

// Store wraps an inner storage.Store with fault injection. With faults
// disabled (the initial state) it is a transparent pass-through and
// satisfies the full storagetest conformance contract of the inner engine.
type Store struct {
	inner storage.Store
	cfg   Config

	enabled atomic.Bool
	ops     atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand

	hookMu    sync.Mutex
	hooks     []crashHook
	hookCount atomic.Int32

	metrics Metrics
}

// Wrap returns inner behind a fault injector. Injection starts DISABLED so
// setup phases (seeding, bootstrap) run clean; call SetEnabled(true) to
// start the chaos.
func Wrap(inner storage.Store, cfg Config) *Store {
	if cfg.Spike == 0 {
		cfg.Spike = 50 * time.Millisecond
	}
	return &Store{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
}

// SetEnabled toggles fault injection. Disabling also stops consuming
// random draws, so a disabled phase never perturbs the deterministic
// decision stream of the next enabled phase.
func (s *Store) SetEnabled(on bool) { s.enabled.Store(on) }

// FaultMetrics returns the injection counters.
func (s *Store) FaultMetrics() *Metrics { return &s.metrics }

// Ops returns the number of storage operations seen so far (the clock
// CrashAfter schedules against).
func (s *Store) Ops() int64 { return s.ops.Load() }

// CrashAfter schedules fn to run synchronously at the start of the first
// storage operation after delta more operations have begun — a precise
// crash point for tests that must kill a node mid-protocol (e.g. between a
// commit's data write and its record write). Hooks fire exactly once, even
// with faults disabled.
func (s *Store) CrashAfter(delta int64, fn func()) {
	s.hookMu.Lock()
	s.hooks = append(s.hooks, crashHook{at: s.ops.Load() + delta, fn: fn})
	s.hookMu.Unlock()
	s.hookCount.Add(1)
}

// advance ticks the operation clock and fires due crash hooks.
func (s *Store) advance() int64 {
	n := s.ops.Add(1)
	s.metrics.Ops.Add(1)
	if s.hookCount.Load() > 0 {
		s.fireHooks(n)
	}
	return n
}

func (s *Store) fireHooks(n int64) {
	s.hookMu.Lock()
	var due []func()
	kept := s.hooks[:0]
	for _, h := range s.hooks {
		if h.at <= n {
			due = append(due, h.fn)
		} else {
			kept = append(kept, h)
		}
	}
	s.hooks = kept
	s.hookCount.Store(int32(len(kept)))
	s.hookMu.Unlock()
	for _, fn := range due {
		s.metrics.Crashes.Add(1)
		fn()
	}
}

// batch-operation fault modes.
const (
	modeOK = iota
	modeFail
	modePartial
)

// draw samples one operation's fault decisions: exactly two draws per
// operation, always in the same order, so the decision stream is a pure
// function of the seed and the operation sequence.
func (s *Store) draw(batch bool) (spike bool, mode int) {
	s.mu.Lock()
	sp := s.rng.Float64()
	fa := s.rng.Float64()
	s.mu.Unlock()
	spike = sp < s.cfg.SpikeRate
	switch {
	case fa < s.cfg.ErrorRate:
		mode = modeFail
	case batch && fa < s.cfg.ErrorRate+s.cfg.PartialRate:
		mode = modePartial
	default:
		mode = modeOK
	}
	return spike, mode
}

// gate runs the per-operation injection protocol for a point operation,
// returning a non-nil error when the operation must fail.
func (s *Store) gate(op string) error {
	s.advance()
	if !s.enabled.Load() {
		return nil
	}
	spike, mode := s.draw(false)
	if spike {
		s.spike()
	}
	if mode != modeOK {
		s.metrics.Errors.Add(1)
		return fmt.Errorf("chaos: injected transient %s failure: %w", op, errTransient)
	}
	return nil
}

// gateBatch is gate for batch operations, additionally reporting the
// partial-failure mode.
func (s *Store) gateBatch(op string) (int, error) {
	s.advance()
	if !s.enabled.Load() {
		return modeOK, nil
	}
	spike, mode := s.draw(true)
	if spike {
		s.spike()
	}
	if mode == modeFail {
		s.metrics.Errors.Add(1)
		return mode, fmt.Errorf("chaos: injected transient %s failure: %w", op, errTransient)
	}
	return mode, nil
}

func (s *Store) spike() {
	s.metrics.Spikes.Add(1)
	s.cfg.Sleeper.Sleep(s.cfg.Spike)
}

// split partitions keys into the applied and failed halves of a partial
// batch failure. The choice is a pure function of the seed and each key,
// so it is independent of both map iteration order and operation order; at
// least one key always fails (otherwise the "partial" failure would be a
// clean success with a spurious error).
func (s *Store) split(keys []string) (applied, failed []string) {
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	mix := uint32(s.cfg.Seed)*2654435761 | 1
	for _, k := range sorted {
		// Decide on a middle bit of the mixed hash: multiplying by an odd
		// constant never changes the LOW bit, so selecting on bit 0 would
		// ignore the seed entirely.
		if (strhash.FNV32a(k)*mix>>16)&1 == 0 {
			applied = append(applied, k)
		} else {
			failed = append(failed, k)
		}
	}
	if len(failed) == 0 {
		failed = append(failed, applied[len(applied)-1])
		applied = applied[:len(applied)-1]
	}
	return applied, failed
}

// partialErr builds the error a partially-applied batch returns.
func partialErr(op string, failed, total int) error {
	return fmt.Errorf("chaos: injected partial %s failure (%d/%d keys failed): %w",
		op, failed, total, errTransient)
}

// Name implements storage.Store (transparent: the inner engine's name).
func (s *Store) Name() string { return s.inner.Name() }

// Capabilities implements storage.Store: the inner engine's, minus
// AtomicBatches whenever this wrapper is configured to split batches. A
// partial BatchPut durably applies some items of a call and fails the rest,
// which is exactly what the capability rules out — over the WAL it could
// land a commit record without its data. Masking the bit (rather than
// failing such a call whole on an atomic engine) keeps partial application
// injectable over every engine, and it goes by the configured rate, not by
// SetEnabled, so a caller sees one answer for the life of the wrapper.
func (s *Store) Capabilities() storage.Capabilities {
	caps := s.inner.Capabilities()
	if s.cfg.PartialRate > 0 {
		caps.AtomicBatches = false
	}
	return caps
}

// Metrics forwards the inner engine's operation metrics when it exposes
// them (the storagetest chunking contract asserts through this), or an
// inert zero-valued set otherwise.
func (s *Store) Metrics() *storage.Metrics {
	if m, ok := s.inner.(interface{ Metrics() *storage.Metrics }); ok {
		return m.Metrics()
	}
	return &inertMetrics
}

var inertMetrics storage.Metrics

// Get implements storage.Store.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	if err := s.gate("Get"); err != nil {
		return nil, err
	}
	return s.inner.Get(ctx, key)
}

// Put implements storage.Store.
func (s *Store) Put(ctx context.Context, key string, value []byte) error {
	if err := s.gate("Put"); err != nil {
		return err
	}
	return s.inner.Put(ctx, key, value)
}

// Delete implements storage.Store.
func (s *Store) Delete(ctx context.Context, key string) error {
	if err := s.gate("Delete"); err != nil {
		return err
	}
	return s.inner.Delete(ctx, key)
}

// List implements storage.Store.
func (s *Store) List(ctx context.Context, prefix string) ([]string, error) {
	if err := s.gate("List"); err != nil {
		return nil, err
	}
	return s.inner.List(ctx, prefix)
}

// BatchPut implements storage.Store. A partial failure durably applies a
// deterministic subset of the items and fails the rest — the non-atomic
// batch behaviour the Store contract permits and §3.3 must tolerate.
func (s *Store) BatchPut(ctx context.Context, items map[string][]byte) error {
	mode, err := s.gateBatch("BatchPut")
	if err != nil {
		return err
	}
	if mode != modePartial || len(items) < 2 {
		return s.inner.BatchPut(ctx, items)
	}
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	applied, failed := s.split(keys)
	if len(applied) > 0 {
		sub := make(map[string][]byte, len(applied))
		for _, k := range applied {
			sub[k] = items[k]
		}
		if err := s.inner.BatchPut(ctx, sub); err != nil {
			// The engine itself refused (e.g. ErrBatchUnsupported):
			// surface ITS error so callers take their real fallback path.
			return err
		}
	}
	s.metrics.PartialBatchPuts.Add(1)
	return partialErr("BatchPut", len(failed), len(items))
}

// BatchGet implements storage.Store. A partial failure returns the values
// of a deterministic subset of the keys TOGETHER WITH an error; per the
// Store contract an errored read must not be trusted, so conforming
// callers retry the whole call.
func (s *Store) BatchGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	mode, err := s.gateBatch("BatchGet")
	if err != nil {
		return nil, err
	}
	if mode != modePartial || len(keys) < 2 {
		return s.inner.BatchGet(ctx, keys)
	}
	applied, failed := s.split(keys)
	out, err := s.inner.BatchGet(ctx, applied)
	if err != nil {
		return nil, err
	}
	s.metrics.PartialBatchGets.Add(1)
	return out, partialErr("BatchGet", len(failed), len(keys))
}

// BatchDelete implements storage.Store. A partial failure deletes a
// deterministic subset of the keys and fails the rest.
func (s *Store) BatchDelete(ctx context.Context, keys []string) error {
	mode, err := s.gateBatch("BatchDelete")
	if err != nil {
		return err
	}
	if mode != modePartial || len(keys) < 2 {
		return s.inner.BatchDelete(ctx, keys)
	}
	applied, failed := s.split(keys)
	if err := s.inner.BatchDelete(ctx, applied); err != nil {
		return err
	}
	s.metrics.PartialBatchDeletes.Add(1)
	return partialErr("BatchDelete", len(failed), len(keys))
}
