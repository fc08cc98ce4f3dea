package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// txnShape is the fixed op sequence one transaction issues between Start
// and Commit; the keys come from the client's script.
type txnShape int

const (
	// shapePaperMix is the paper's §6 transaction: 2 functions, each
	// 1 Put then 2 Gets (6 keys).
	shapePaperMix txnShape = iota
	// shapeWriteOnly is 2 Puts.
	shapeWriteOnly
	// shapeReadOnly is one MultiGet of 4 keys, then 2 Gets (6 keys).
	shapeReadOnly
)

// keysPerTxn is how many script slots one transaction of the shape uses.
func (s txnShape) keysPerTxn() int {
	if s == shapeWriteOnly {
		return 2
	}
	return 6
}

// putsPerTxn is how many of those slots are written.
func (s txnShape) putsPerTxn() int {
	if s == shapeReadOnly {
		return 0
	}
	return 2
}

// scriptOps is the target length of one client's key ring.
const scriptOps = 65536

// script is one client's pre-generated inputs: a ring of key indexes,
// consumed keysPerTxn at a time. Everything random is decided here, before
// timing starts, from the seed alone.
type script struct {
	keys []uint32
	per  int
}

// txnKeys returns the key indexes of the client's n-th transaction.
func (s *script) txnKeys(n int) []uint32 {
	off := (n * s.per) % len(s.keys)
	return s.keys[off : off+s.per]
}

// keyPicker draws key indexes in [0, n).
type keyPicker interface{ pick(r *rand.Rand) uint32 }

type uniformKeys struct{ n int }

func (u uniformKeys) pick(r *rand.Rand) uint32 { return uint32(r.Intn(u.n)) }

// zipfKeys samples rank i with probability proportional to 1/(i+1)^s by
// inverting a precomputed CDF. math/rand's Zipf needs s > 1; the paper's
// default skew is exactly 1.0.
type zipfKeys struct{ cdf []float64 }

func newZipfKeys(n int, s float64) zipfKeys {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipfKeys{cdf: cdf}
}

func (z zipfKeys) pick(r *rand.Rand) uint32 {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return uint32(i)
}

// newScripts builds one script per client. Client c's stream depends only
// on (seed, c), so changing the client count of one workload does not
// reshuffle the others.
func newScripts(seed int64, clients int, shape txnShape, picker keyPicker) []*script {
	per := shape.keysPerTxn()
	ops := scriptOps / per * per
	out := make([]*script, clients)
	for c := range out {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		keys := make([]uint32, ops)
		for i := range keys {
			keys[i] = picker.pick(r)
		}
		out[c] = &script{keys: keys, per: per}
	}
	return out
}

// keyspace holds the workload's key names and the header every value
// written under a key starts with, so a read can be checked against the
// key it was asked for without formatting anything in the timed path.
type keyspace struct {
	names   []string
	headers [][]byte
	valueSz int
}

const valueFill = 'x'

func newKeyspace(n, valueSz int) *keyspace {
	ks := &keyspace{names: make([]string, n), headers: make([][]byte, n), valueSz: valueSz}
	for i := range ks.names {
		name := fmt.Sprintf("k%06d", i)
		ks.names[i] = name
		ks.headers[i] = []byte(name + "|")
	}
	return ks
}

// stampLen is the length of the "cNN|sNNNNNNNNNN|" writer stamp that
// follows the key header.
const stampLen = 1 + 2 + 1 + 1 + 10 + 1

// value builds the bytes client writes under key in its seq-th
// transaction: "<key>|c<client>|s<seq>|" padded with valueFill to the
// workload's value size. A fresh slice each call — the node and the
// in-memory engines keep a reference to what they are handed.
func (ks *keyspace) value(key uint32, client, seq int) []byte {
	v := make([]byte, ks.valueSz)
	n := copy(v, ks.headers[key])
	v[n] = 'c'
	putDigits(v[n+1:n+3], client)
	v[n+3] = '|'
	v[n+4] = 's'
	putDigits(v[n+5:n+15], seq)
	v[n+15] = '|'
	for i := n + stampLen; i < len(v); i++ {
		v[i] = valueFill
	}
	return v
}

func putDigits(dst []byte, v int) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

// wellFormed is the timed-path read check: right length, and a header
// naming the key that was asked for.
func (ks *keyspace) wellFormed(key uint32, v []byte) bool {
	h := ks.headers[key]
	return len(v) == ks.valueSz && string(v[:len(h)]) == string(h)
}
