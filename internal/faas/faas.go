// Package faas simulates the Functions-as-a-Service platform AFT sits
// under (AWS Lambda in the paper).
//
// A logical request is modeled the way §2.2 describes: a linear composition
// of one or more functions, each potentially executing on a different
// machine, sharing only the transaction ID. The platform adds per-function
// invocation overhead, injects crashes (a function may die midway through
// its IO sequence), and applies the retry-based fault-tolerance model of
// §3.3.1: a crashed function is retried with the same transaction ID; a
// request whose transaction hits an unrecoverable condition (no valid
// version, node loss) is aborted and redone from scratch.
//
// Substitution note (DESIGN.md §2): real Lambda is unavailable offline; the
// simulator preserves what the evaluation depends on — per-function
// overhead, at-least-once retries, and mid-function partial failures.
package faas

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"aft/internal/core"
	"aft/internal/idgen"
	"aft/internal/latency"
	"aft/internal/lb"
)

// Errors produced by the platform.
var (
	// ErrInjectedCrash simulates a function dying mid-execution. It is
	// retriable: the platform re-invokes the function with the same
	// transaction ID.
	ErrInjectedCrash = errors.New("faas: injected function crash")
	// ErrRetriesExhausted means the request failed after MaxRetries
	// attempts.
	ErrRetriesExhausted = errors.New("faas: retries exhausted")
)

// TxnClient is the transactional surface a request executes against:
// an AFT node, a load balancer over many nodes, or a remote wire client.
type TxnClient interface {
	StartTransaction(ctx context.Context) (string, error)
	Get(ctx context.Context, txid, key string) ([]byte, error)
	Put(ctx context.Context, txid, key string, value []byte) error
	CommitTransaction(ctx context.Context, txid string) (idgen.ID, error)
	AbortTransaction(ctx context.Context, txid string) error
}

// Function is one serverless function in a request chain. It performs its
// IO through the Ctx and returns an error to fail the invocation.
type Function func(fc *Ctx) error

// Ctx is the per-invocation handle a Function uses for storage IO. It
// counts IO operations so the platform can crash the function midway.
type Ctx struct {
	ctx      context.Context
	client   TxnClient
	txid     string
	slot     int
	ioCount  int
	crashAt  int // crash before the Nth IO; 0 = never
	attempts int
}

// TxID returns the logical request's transaction ID.
func (fc *Ctx) TxID() string { return fc.txid }

// Slot returns the function's index within the request chain.
func (fc *Ctx) Slot() int { return fc.slot }

// Attempt returns the invocation attempt number (0 = first try).
func (fc *Ctx) Attempt() int { return fc.attempts }

// Context returns the request context.
func (fc *Ctx) Context() context.Context { return fc.ctx }

func (fc *Ctx) maybeCrash() error {
	fc.ioCount++
	if fc.crashAt > 0 && fc.ioCount >= fc.crashAt {
		return ErrInjectedCrash
	}
	return nil
}

// Get reads key within the request's transaction.
func (fc *Ctx) Get(key string) ([]byte, error) {
	if err := fc.maybeCrash(); err != nil {
		return nil, err
	}
	return fc.client.Get(fc.ctx, fc.txid, key)
}

// Put writes key within the request's transaction.
func (fc *Ctx) Put(key string, value []byte) error {
	if err := fc.maybeCrash(); err != nil {
		return err
	}
	return fc.client.Put(fc.ctx, fc.txid, key, value)
}

// Config parameterizes a Platform.
type Config struct {
	// Client is the transactional backend requests run against. Required.
	Client TxnClient
	// Overhead models per-function invocation latency (latency.OpInvoke);
	// nil adds none.
	Overhead *latency.Model
	// Sleeper injects the overhead; nil never sleeps.
	Sleeper *latency.Sleeper
	// CrashRate is the probability that any single function invocation
	// crashes partway through its IO sequence.
	CrashRate float64
	// MaxFunctionRetries bounds per-function retry attempts (the paper's
	// platforms retry failed functions automatically).
	MaxFunctionRetries int
	// MaxRequestRetries bounds whole-request redo attempts after
	// unrecoverable transaction errors.
	MaxRequestRetries int
	// Seed makes crash injection deterministic.
	Seed int64
}

// Metrics counts platform activity.
type Metrics struct {
	mu              sync.Mutex
	Invocations     int64
	Crashes         int64
	FunctionRetries int64
	RequestRetries  int64
	Commits         int64
	Aborts          int64
}

// MetricsSnapshot is a point-in-time copy of Metrics.
type MetricsSnapshot struct {
	Invocations, Crashes, FunctionRetries, RequestRetries, Commits, Aborts int64
}

// Snapshot returns a copy of the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MetricsSnapshot{
		Invocations: m.Invocations, Crashes: m.Crashes,
		FunctionRetries: m.FunctionRetries, RequestRetries: m.RequestRetries,
		Commits: m.Commits, Aborts: m.Aborts,
	}
}

// Platform executes function chains as transactions.
type Platform struct {
	cfg     Config
	mu      sync.Mutex
	rng     *rand.Rand
	metrics Metrics
}

// New returns a Platform over cfg.
func New(cfg Config) (*Platform, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("faas: Config.Client is required")
	}
	if cfg.MaxFunctionRetries == 0 {
		cfg.MaxFunctionRetries = 3
	}
	if cfg.MaxRequestRetries == 0 {
		cfg.MaxRequestRetries = 3
	}
	return &Platform{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Metrics returns the platform counters.
func (p *Platform) Metrics() *Metrics { return &p.metrics }

func (p *Platform) count(f func(*Metrics)) {
	p.metrics.mu.Lock()
	f(&p.metrics)
	p.metrics.mu.Unlock()
}

// crashPoint decides whether (and where) an invocation crashes: a crash
// lands uniformly within the function's first few IOs.
func (p *Platform) crashPoint() int {
	if p.cfg.CrashRate <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rng.Float64() >= p.cfg.CrashRate {
		return 0
	}
	return 1 + p.rng.Intn(4)
}

// Invoke runs fns as one logical request — one AFT transaction spanning the
// whole chain (§2.2) — and returns the commit ID. Failed functions are
// retried with the same transaction ID; unrecoverable transaction errors
// abort and redo the whole request. Only tests call it: this package's and
// the root package's TestIntegrationClusterExactlyOnceUnderCrashes.
func (p *Platform) Invoke(ctx context.Context, fns ...Function) (idgen.ID, error) {
	return p.InvokeBuilder(ctx, func() []Function { return fns })
}

// Builder constructs a fresh function chain for one request attempt;
// callers that accumulate per-request state (e.g. anomaly traces) use it to
// reset that state when the whole request is redone.
type Builder func() []Function

// InvokeBuilder is Invoke with a per-attempt chain builder.
func (p *Platform) InvokeBuilder(ctx context.Context, build Builder) (idgen.ID, error) {
	var lastErr error
	for attempt := 0; attempt <= p.cfg.MaxRequestRetries; attempt++ {
		if attempt > 0 {
			p.count(func(m *Metrics) { m.RequestRetries++ })
		}
		id, err := p.runOnce(ctx, build())
		if err == nil {
			p.count(func(m *Metrics) { m.Commits++ })
			return id, nil
		}
		lastErr = err
		if !retriableRequest(err) {
			return idgen.Null, err
		}
	}
	return idgen.Null, fmt.Errorf("%w: %v", ErrRetriesExhausted, lastErr)
}

// runOnce executes the chain once under a fresh transaction.
func (p *Platform) runOnce(ctx context.Context, fns []Function) (idgen.ID, error) {
	txid, err := p.cfg.Client.StartTransaction(ctx)
	if err != nil {
		return idgen.Null, err
	}
	for slot, fn := range fns {
		if err := p.invokeFunction(ctx, txid, slot, fn); err != nil {
			p.count(func(m *Metrics) { m.Aborts++ })
			_ = p.cfg.Client.AbortTransaction(ctx, txid)
			return idgen.Null, err
		}
	}
	return p.cfg.Client.CommitTransaction(ctx, txid)
}

// invokeFunction runs one function with per-invocation overhead, crash
// injection, and same-txid retries (§3.3.1).
func (p *Platform) invokeFunction(ctx context.Context, txid string, slot int, fn Function) error {
	var lastErr error
	for attempt := 0; attempt <= p.cfg.MaxFunctionRetries; attempt++ {
		p.count(func(m *Metrics) { m.Invocations++ })
		if attempt > 0 {
			p.count(func(m *Metrics) { m.FunctionRetries++ })
		}
		p.cfg.Sleeper.Sleep(p.cfg.Overhead.Sample(latency.OpInvoke, 1))
		fc := &Ctx{
			ctx:      ctx,
			client:   p.cfg.Client,
			txid:     txid,
			slot:     slot,
			crashAt:  p.crashPoint(),
			attempts: attempt,
		}
		err := fn(fc)
		if err == nil && fc.crashAt > 0 && fc.ioCount < fc.crashAt {
			// The function body completed but the instance died before
			// reporting success; the platform sees a crash and retries.
			err = ErrInjectedCrash
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrInjectedCrash) {
			p.count(func(m *Metrics) { m.Crashes++ })
			lastErr = err
			continue // retry with the same transaction ID
		}
		return err
	}
	return fmt.Errorf("%w: %v", ErrRetriesExhausted, lastErr)
}

// retriableRequest reports whether a whole-request redo can help.
func retriableRequest(err error) bool {
	switch {
	case errors.Is(err, core.ErrNoValidVersion):
		// §3.6: equivalent to a snapshot miss; abort and retry.
		return true
	case errors.Is(err, core.ErrVersionVanished):
		// The global GC collected a read version mid-transaction; redo
		// observes the superseding state (§5.2.1 analogue).
		return true
	case errors.Is(err, lb.ErrBackendGone), errors.Is(err, lb.ErrUnknownTxn):
		// The transaction's node failed; redo from scratch (§3.3.1).
		return true
	case errors.Is(err, core.ErrTxnNotFound):
		// Node lost the transaction (restart); redo.
		return true
	case errors.Is(err, ErrRetriesExhausted):
		return true
	default:
		return false
	}
}
