// Package workload generates the paper's evaluation workloads and detects
// the consistency anomalies Table 2 counts.
//
// The canonical workload (§6.1.2, reused through §6.5) is a transaction of
// two sequential functions, each performing one 4 KB write and two reads,
// with keys drawn from a Zipfian distribution. This package produces those
// request shapes abstractly (as per-function operation lists) so the same
// workload can be executed through AFT, through plain storage baselines,
// and through DynamoDB's transaction mode.
package workload

import (
	"fmt"
	"math/rand"
	"sync"
)

// KeyChooser picks keys for a workload. Implementations are safe for
// concurrent use.
type KeyChooser interface {
	// Next returns the next key.
	Next() string
	// Keys returns the size of the key space.
	Keys() int
}

// Zipf draws keys with Zipfian skew; coefficient 1.0 is the paper's
// "lightly contended" setting, 1.5 "moderate", 2.0 "heavy" (§6.2).
type Zipf struct {
	mu   sync.Mutex
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

// NewZipf returns a Zipf chooser over n keys with the given coefficient.
// Coefficients <= 1 are nudged above 1 (math/rand requires s > 1; the
// paper's z=1.0 maps to s=1.0001, preserving the intended light skew).
func NewZipf(seed int64, n int, coefficient float64) *Zipf {
	if n < 1 {
		n = 1
	}
	s := coefficient
	if s <= 1 {
		s = 1.0001
	}
	rng := rand.New(rand.NewSource(seed))
	return &Zipf{
		rng:  rng,
		zipf: rand.NewZipf(rng, s, 1, uint64(n-1)),
		n:    n,
	}
}

// Next implements KeyChooser.
func (z *Zipf) Next() string {
	z.mu.Lock()
	k := z.zipf.Uint64()
	z.mu.Unlock()
	return KeyName(int(k))
}

// Keys implements KeyChooser.
func (z *Zipf) Keys() int { return z.n }

// Uniform draws keys uniformly.
type Uniform struct {
	mu  sync.Mutex
	rng *rand.Rand
	n   int
}

// NewUniform returns a Uniform chooser over n keys. Only tests call it:
// this package's and baselines' TestAFTExecutorZeroAnomalies.
func NewUniform(seed int64, n int) *Uniform {
	if n < 1 {
		n = 1
	}
	return &Uniform{rng: rand.New(rand.NewSource(seed)), n: n}
}

// Next implements KeyChooser.
func (u *Uniform) Next() string {
	u.mu.Lock()
	k := u.rng.Intn(u.n)
	u.mu.Unlock()
	return KeyName(k)
}

// Keys implements KeyChooser.
func (u *Uniform) Keys() int { return u.n }

// KeyName renders the canonical key name for index i.
func KeyName(i int) string { return fmt.Sprintf("key-%08d", i) }

// Payload returns a deterministic pseudo-random payload of size bytes
// (4 KB in the paper's workloads).
func Payload(seed int64, size int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, size)
	rng.Read(b)
	return b
}
