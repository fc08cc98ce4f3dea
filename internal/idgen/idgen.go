// Package idgen defines AFT transaction identifiers and their total order.
//
// A transaction ID is a ⟨timestamp, uuid⟩ pair (§3.1 of the paper). The
// timestamp is taken from the issuing node's local clock at commit time and
// is used only for relative freshness — correctness never depends on clock
// synchronization. Ties between equal timestamps are broken by comparing
// UUIDs lexicographically, so IDs form a total order without coordination.
package idgen

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	mrand "math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ID uniquely identifies a transaction. The zero value is the NULL ID, which
// orders before every real ID and denotes the NULL version of a key (§3.2).
type ID struct {
	// Timestamp is the commit timestamp in nanoseconds. It orders IDs by
	// relative freshness but carries no synchronization guarantee.
	Timestamp int64
	// UUID is a globally unique identifier, used to break timestamp ties
	// and to key idempotent retries.
	UUID string
}

// Null is the NULL transaction ID; it precedes all real IDs.
var Null = ID{}

// IsNull reports whether id is the NULL ID.
func (id ID) IsNull() bool { return id.Timestamp == 0 && id.UUID == "" }

// Less reports whether id orders strictly before other: first by timestamp,
// then by lexicographic UUID comparison.
func (id ID) Less(other ID) bool {
	if id.Timestamp != other.Timestamp {
		return id.Timestamp < other.Timestamp
	}
	return id.UUID < other.UUID
}

// Compare returns -1, 0, or +1 as id orders before, equal to, or after other.
func (id ID) Compare(other ID) int {
	switch {
	case id.Less(other):
		return -1
	case other.Less(id):
		return 1
	default:
		return 0
	}
}

// Equal reports whether the two IDs are identical.
func (id ID) Equal(other ID) bool {
	return id.Timestamp == other.Timestamp && id.UUID == other.UUID
}

// String renders the ID as "<timestamp>_<uuid>", the form used to build
// unique storage keys for key-versions and commit records.
func (id ID) String() string {
	var b [128]byte
	return string(id.Append(b[:0]))
}

// Append appends the String form of id to dst. A storage-key builder
// embeds the ID with it, assembling the whole key in one buffer.
func (id ID) Append(dst []byte) []byte {
	dst = strconv.AppendInt(dst, id.Timestamp, 10)
	dst = append(dst, '_')
	return append(dst, id.UUID...)
}

// Parse decodes an ID previously rendered by String.
func Parse(s string) (ID, error) {
	i := strings.IndexByte(s, '_')
	if i < 0 {
		return Null, fmt.Errorf("idgen: malformed id %q: missing separator", s)
	}
	ts, err := strconv.ParseInt(s[:i], 10, 64)
	if err != nil {
		return Null, fmt.Errorf("idgen: malformed id %q: %v", s, err)
	}
	return ID{Timestamp: ts, UUID: s[i+1:]}, nil
}

// Clock supplies commit timestamps. Implementations must be monotone
// non-decreasing per process; cross-node skew is tolerated by the protocols.
type Clock interface {
	// Now returns the current timestamp in nanoseconds.
	Now() int64
}

// WallClock is a Clock backed by the system clock, made strictly monotone
// per process so that a single node never assigns decreasing timestamps.
type WallClock struct {
	last atomic.Int64
}

// Now returns a strictly increasing wall-clock-derived timestamp.
func (w *WallClock) Now() int64 {
	for {
		now := time.Now().UnixNano()
		prev := w.last.Load()
		if now <= prev {
			now = prev + 1
		}
		if w.last.CompareAndSwap(prev, now) {
			return now
		}
	}
}

// VirtualClock is a deterministic Clock for tests and simulations: each call
// advances the time by Step (default 1).
type VirtualClock struct {
	mu   sync.Mutex
	now  int64
	step int64
}

// NewVirtualClock returns a VirtualClock starting at start, advancing by
// step on every Now call. A step of 0 is normalized to 1.
func NewVirtualClock(start, step int64) *VirtualClock {
	if step == 0 {
		step = 1
	}
	return &VirtualClock{now: start, step: step}
}

// Now returns the next virtual timestamp.
func (v *VirtualClock) Now() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now += v.step
	return v.now
}

// Set forces the virtual clock to t; the next Now returns t+step.
func (v *VirtualClock) Set(t int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.now = t
}

// Generator mints transaction IDs from a Clock plus random UUIDs.
type Generator struct {
	clock Clock
	// node is mixed into UUIDs so IDs remain unique even if two
	// generators share a deterministic entropy source.
	node string
	mu   sync.Mutex
	seq  uint64
	rnd  func([]byte) error
	// entropy holds the random bytes of one rnd call, handed out 8 per ID
	// from used on, so one call serves entropyIDs IDs.
	entropy [8 * entropyIDs]byte
	used    int
}

// entropyIDs is how many IDs one entropy refill serves.
const entropyIDs = 64

// NewGenerator returns a Generator that stamps IDs with clock and embeds the
// node name in every UUID. If clock is nil a process-wide WallClock is used.
func NewGenerator(clock Clock, node string) *Generator {
	if clock == nil {
		clock = defaultWallClock
	}
	g := &Generator{clock: clock, node: node, rnd: func(b []byte) error {
		_, err := rand.Read(b)
		return err
	}}
	g.used = len(g.entropy)
	return g
}

var defaultWallClock = &WallClock{}

// SeedEntropy replaces the generator's random source with a seeded
// deterministic stream (simulation and chaos harnesses, where IDs must
// reproduce bit-for-bit run over run). Uniqueness never depends on the
// stream: UUIDs embed the node name and a sequence number, so two
// generators sharing a seed still mint distinct IDs. The stream's bytes do
// not depend on how many are read at once, so IDs are the same whatever
// the refill size.
func (g *Generator) SeedEntropy(seed int64) {
	rng := mrand.New(mrand.NewSource(seed))
	g.mu.Lock()
	g.rnd = func(b []byte) error {
		_, err := rng.Read(b)
		return err
	}
	g.used = len(g.entropy) // drop what the old source supplied
	g.mu.Unlock()
}

// NewID mints a fresh transaction ID. The UUID layout is
// "<node>-<seq>-<hex random>"; sequence numbers keep UUIDs unique even when
// the random source misbehaves. The UUID is built in one allocation.
func (g *Generator) NewID() ID {
	var rnd [8]byte
	g.mu.Lock()
	g.seq++
	seq := g.seq
	if g.used == len(g.entropy) {
		if err := g.rnd(g.entropy[:]); err != nil {
			// Fall back to a time-derived value; uniqueness is preserved
			// by the node name and sequence number.
			for i := 0; i < len(g.entropy); i += 8 {
				binary.BigEndian.PutUint64(g.entropy[i:], uint64(time.Now().UnixNano()))
			}
		}
		g.used = 0
	}
	g.used += copy(rnd[:], g.entropy[g.used:])
	g.mu.Unlock()

	var b [128]byte
	u := append(append(b[:0], g.node...), '-')
	u = append(strconv.AppendUint(u, seq, 16), '-')
	u = hex.AppendEncode(u, rnd[:])
	return ID{Timestamp: g.clock.Now(), UUID: string(u)}
}

// NewTimestamp returns a fresh commit timestamp without minting a UUID.
// The commit path stamps an existing transaction UUID (§3.1: the ID is
// assigned "at commit time") and should not pay for entropy it would
// discard — NewID's random read is a measurable cost at high commit rates.
func (g *Generator) NewTimestamp() int64 { return g.clock.Now() }
