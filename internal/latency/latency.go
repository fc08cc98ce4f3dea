// Package latency provides seeded, deterministic latency models for the
// simulated cloud substrates (DynamoDB, S3, Redis, FaaS invocation).
//
// The paper's evaluation ran against real AWS services; offline we reproduce
// the *shape* of their latency behaviour with per-operation log-normal
// distributions (median + dispersion + an explicit heavy tail). Every model
// draws from its own seeded source, so experiment runs are reproducible.
//
// Models return durations; callers inject them with a Sleeper. The Sleeper
// supports scaling (run experiments faster than real time while preserving
// relative shape) and can be disabled entirely for unit tests.
package latency

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Op identifies a class of storage or platform operation with its own
// latency distribution.
type Op int

// Operation classes modeled by a Profile.
const (
	OpGet Op = iota
	OpPut
	OpBatchWrite
	OpDelete
	OpList
	OpTransact // DynamoDB transaction-mode round trip
	OpInvoke   // FaaS function invocation overhead
	numOps
)

// String returns a human-readable operation name.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpBatchWrite:
		return "batch"
	case OpDelete:
		return "delete"
	case OpList:
		return "list"
	case OpTransact:
		return "transact"
	case OpInvoke:
		return "invoke"
	default:
		return "unknown"
	}
}

// Dist describes one operation's latency distribution: a log-normal body
// with median Median and log-space standard deviation Sigma, plus a heavy
// tail — with probability TailProb the sample is multiplied by TailFactor.
// PerItem is added per item for batch-style operations.
type Dist struct {
	Median     time.Duration
	Sigma      float64
	TailProb   float64
	TailFactor float64
	PerItem    time.Duration
}

// Profile holds one Dist per Op.
type Profile map[Op]Dist

// Model samples operation latencies from a Profile using a seeded source.
// It is safe for concurrent use.
type Model struct {
	mu      sync.Mutex
	rng     *rand.Rand
	profile Profile
}

// NewModel returns a Model over profile seeded with seed. A nil profile
// yields a model that always samples zero.
func NewModel(profile Profile, seed int64) *Model {
	return &Model{rng: rand.New(rand.NewSource(seed)), profile: profile}
}

// Sample draws a latency for op with n items (n matters only for batch-style
// distributions; pass 1 otherwise).
func (m *Model) Sample(op Op, n int) time.Duration {
	if m == nil || m.profile == nil {
		return 0
	}
	d, ok := m.profile[op]
	if !ok || d.Median <= 0 {
		return 0
	}
	m.mu.Lock()
	z := m.rng.NormFloat64()
	tail := m.rng.Float64() < d.TailProb
	m.mu.Unlock()

	v := float64(d.Median) * math.Exp(d.Sigma*z)
	if tail && d.TailFactor > 1 {
		v *= d.TailFactor
	}
	if n > 1 && d.PerItem > 0 {
		v += float64(d.PerItem) * float64(n-1)
	}
	if v < 0 {
		v = 0
	}
	return time.Duration(v)
}

// Sleeper injects sampled latencies into the calling goroutine.
type Sleeper struct {
	// Scale multiplies every sleep; 0 disables sleeping entirely (unit
	// tests), 1 sleeps at modeled speed, 0.1 runs 10x faster.
	Scale float64
}

// NoSleep is a Sleeper that never sleeps; use it in unit tests.
var NoSleep = &Sleeper{Scale: 0}

// RealTime sleeps at full modeled speed.
var RealTime = &Sleeper{Scale: 1}

// Sleep blocks for d scaled by the sleeper's Scale, and never returns
// sooner. A wait ends within about 10 % of its length from 500 µs up on
// Linux (see sleep_linux.go); time.Sleep would round it up to the next
// millisecond when the process is idle.
func (s *Sleeper) Sleep(d time.Duration) {
	if s == nil || s.Scale <= 0 || d <= 0 {
		return
	}
	if eff := time.Duration(float64(d) * s.Scale); eff > 0 {
		sleep(eff)
	}
}

// Profiles mirroring the storage engines in the paper's evaluation (§6).
// Medians are tuned so the end-to-end shapes in Figures 2-8 reproduce:
// Redis ≪ DynamoDB ≪ S3, with S3 showing the largest variance.

// DynamoDBProfile models a cloud-native KV store: ~3-4ms point ops, cheap
// batching, moderate tail.
func DynamoDBProfile() Profile {
	return Profile{
		OpGet:        {Median: 3500 * time.Microsecond, Sigma: 0.25, TailProb: 0.01, TailFactor: 4},
		OpPut:        {Median: 4 * time.Millisecond, Sigma: 0.30, TailProb: 0.01, TailFactor: 5},
		OpBatchWrite: {Median: 5 * time.Millisecond, Sigma: 0.30, TailProb: 0.012, TailFactor: 5, PerItem: 150 * time.Microsecond},
		OpDelete:     {Median: 4 * time.Millisecond, Sigma: 0.30, TailProb: 0.01, TailFactor: 4},
		OpList:       {Median: 6 * time.Millisecond, Sigma: 0.35, TailProb: 0.01, TailFactor: 3},
		OpTransact:   {Median: 9 * time.Millisecond, Sigma: 0.35, TailProb: 0.02, TailFactor: 6},
	}
}

// S3Profile models a throughput-oriented object store: high medians and a
// very heavy write tail, especially for small objects (§6.1.2).
func S3Profile() Profile {
	return Profile{
		OpGet:    {Median: 12 * time.Millisecond, Sigma: 0.55, TailProb: 0.03, TailFactor: 8},
		OpPut:    {Median: 26 * time.Millisecond, Sigma: 0.70, TailProb: 0.05, TailFactor: 10},
		OpDelete: {Median: 15 * time.Millisecond, Sigma: 0.50, TailProb: 0.03, TailFactor: 6},
		OpList:   {Median: 30 * time.Millisecond, Sigma: 0.50, TailProb: 0.03, TailFactor: 5},
	}
}

// RedisProfile models a memory-speed KVS: sub-millisecond ops, small tail.
// There is no OpBatchWrite entry because cluster-mode Redis cannot batch
// writes across shards; multi-key MSET within a shard uses OpPut + PerItem.
func RedisProfile() Profile {
	return Profile{
		OpGet:    {Median: 500 * time.Microsecond, Sigma: 0.20, TailProb: 0.005, TailFactor: 6},
		OpPut:    {Median: 550 * time.Microsecond, Sigma: 0.20, TailProb: 0.005, TailFactor: 6, PerItem: 40 * time.Microsecond},
		OpDelete: {Median: 500 * time.Microsecond, Sigma: 0.20, TailProb: 0.005, TailFactor: 5},
		OpList:   {Median: 900 * time.Microsecond, Sigma: 0.25, TailProb: 0.005, TailFactor: 5},
	}
}

// LambdaProfile models FaaS platform overhead per function invocation
// (scheduling + runtime startup on a warm container).
func LambdaProfile() Profile {
	return Profile{
		OpInvoke: {Median: 14 * time.Millisecond, Sigma: 0.25, TailProb: 0.01, TailFactor: 4},
	}
}
