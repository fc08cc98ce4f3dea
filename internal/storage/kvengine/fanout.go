package kvengine

import (
	"time"

	"aft/internal/latency"
	"aft/internal/storage"
)

// fanout runs one multi-key call that a client sends as n requests at
// once, as a real client does, rather than one after another. Every
// request goes out together, at most storage.MaxCallsInFlight outstanding,
// so the call sleeps once: for each wave of up to that many requests the
// slowest one's latency, sampled from m for op and the request's item
// count, summed over the waves. Only then does run apply each request to
// the engine, in order. items(i) is request i's item count; a request of
// no items is neither sent nor run. A nil run applies nothing, for a call
// whose caller reads the engine itself once the wait is over.
//
// The caller checks availability and its context once, before fanout, so a
// call's requests are sent all together or not at all. fanout starts no
// goroutine and no timer and allocates nothing.
func fanout(m *latency.Model, s *latency.Sleeper, op latency.Op, n int, items func(i int) int, run func(i int)) {
	var wait, slowest time.Duration
	sent := 0
	for i := range n {
		k := items(i)
		if k == 0 {
			continue
		}
		if sent%storage.MaxCallsInFlight == 0 {
			wait += slowest
			slowest = 0
		}
		sent++
		slowest = max(slowest, m.Sample(op, k))
	}
	s.Sleep(wait + slowest)
	if run == nil {
		return
	}
	for i := range n {
		if items(i) > 0 {
			run(i)
		}
	}
}

// fanoutChunks is fanout for a call that sends keys in requests of at most
// limit keys each, in order: run gets each request's keys, a sub-slice of
// keys.
func fanoutChunks(m *latency.Model, s *latency.Sleeper, op latency.Op, keys []string, limit int, run func(chunk []string)) {
	chunk := func(i int) []string {
		lo := i * limit
		return keys[lo:min(lo+limit, len(keys))]
	}
	fanout(m, s, op, (len(keys)+limit-1)/limit,
		func(i int) int { return len(chunk(i)) },
		func(i int) { run(chunk(i)) })
}
