package kvengine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"aft/internal/latency"
	"aft/internal/storage"
	"aft/internal/storage/storagetest"
)

// rtt is the round trip of every request in the parity script.
const rtt = 50 * time.Millisecond

// outcome is what one call of the parity script does on one profile: the
// error it returns, the round trips it waits and the counters it bumps.
type outcome struct {
	err   error
	waves int
	delta storage.Snapshot
}

// ok is the outcome of a call that succeeds after waves round trips;
// refused, of one that fails before it sends a request.
func ok(waves int, delta storage.Snapshot) outcome { return outcome{waves: waves, delta: delta} }
func refused(err error) outcome                    { return outcome{err: err} }

// all is one outcome on every profile.
func all(o outcome) [3]outcome { return [3]outcome{o, o, o} }

// readLimit is the keys per BatchGet request, the unit the script sizes
// its BatchGets in (1 on Redis, which sends one request per shard).
func readLimit(s *Store) int { return max(s.p.readBatch, 1) }

// keyPair returns two new keys on the same shard of s, or on two shards.
func keyPair(s *Store, sameShard bool) map[string][]byte {
	for i := 1; ; i++ {
		if k := fmt.Sprint("pair-", i); (s.ShardFor(k) == s.ShardFor("pair-0")) == sameShard {
			return map[string][]byte{"pair-0": nil, k: nil}
		}
	}
}

// batchGet reads times×readLimit of the preloaded keys.
func batchGet(times int) func(context.Context, *Store, []string) error {
	return func(ctx context.Context, s *Store, keys []string) error {
		keys = keys[:times*readLimit(s)]
		got, err := s.BatchGet(ctx, keys)
		if err == nil && len(got) != len(keys) {
			err = fmt.Errorf("read %d of %d keys", len(got), len(keys))
		}
		return err
	}
}

// TestParity runs one call script over the three profiles and pins, call
// by call, what each service does: the error, the round trips waited
// (requests go out together, storage.MaxCallsInFlight at a time) and the
// counters bumped. Each call is also sent first with a cancelled context
// and then to a store that is down: either way it fails at once, sends
// nothing and counts nothing.
func TestParity(t *testing.T) {
	script := []struct {
		call string
		do   func(ctx context.Context, s *Store, keys []string) error
		want [3]outcome // DynamoDB, S3, Redis
	}{
		{"Get", func(ctx context.Context, s *Store, keys []string) error {
			v, err := s.Get(ctx, keys[0])
			if err == nil && string(v) != "v" {
				err = fmt.Errorf("Get = %q, want v", v)
			}
			return err
		}, all(ok(1, storage.Snapshot{Gets: 1}))},
		{"Get of a missing key", func(ctx context.Context, s *Store, _ []string) error {
			_, err := s.Get(ctx, "missing")
			return err
		}, all(outcome{storage.ErrNotFound, 1, storage.Snapshot{Gets: 1}})},
		{"Put", func(ctx context.Context, s *Store, _ []string) error {
			return s.Put(ctx, "new", []byte("v"))
		}, all(ok(1, storage.Snapshot{Puts: 1}))},
		{"BatchPut of 2 keys on one shard", func(ctx context.Context, s *Store, _ []string) error {
			return s.BatchPut(ctx, keyPair(s, true))
		}, [3]outcome{
			ok(1, storage.Snapshot{Batches: 1, BatchItems: 2}),
			refused(storage.ErrBatchUnsupported),
			ok(1, storage.Snapshot{Batches: 1, BatchItems: 2}),
		}},
		{"BatchPut of 2 keys on two shards", func(ctx context.Context, s *Store, _ []string) error {
			return s.BatchPut(ctx, keyPair(s, false))
		}, [3]outcome{
			ok(1, storage.Snapshot{Batches: 1, BatchItems: 2}),
			refused(storage.ErrBatchUnsupported),
			refused(storage.ErrBatchUnsupported),
		}},
		{"BatchPut of 26 keys", func(ctx context.Context, s *Store, keys []string) error {
			items := map[string][]byte{}
			for _, k := range keys[:DynamoDBMaxBatch+1] {
				items[k] = nil
			}
			return s.BatchPut(ctx, items)
		}, [3]outcome{
			refused(storage.ErrBatchTooLarge),
			refused(storage.ErrBatchUnsupported),
			refused(storage.ErrBatchUnsupported),
		}},
		{"BatchGet of 1×limit keys", batchGet(1), [3]outcome{
			ok(1, storage.Snapshot{BatchGets: 1, BatchGetItems: 100}),
			ok(1, storage.Snapshot{Gets: 1}),
			ok(1, storage.Snapshot{BatchGets: 1, BatchGetItems: 1}),
		}},
		{"BatchGet of 32×limit keys", batchGet(32), [3]outcome{
			ok(1, storage.Snapshot{BatchGets: 32, BatchGetItems: 3200}),
			ok(1, storage.Snapshot{Gets: 32}),
			ok(1, storage.Snapshot{BatchGets: 2, BatchGetItems: 32}),
		}},
		{"BatchGet of 33×limit keys", batchGet(33), [3]outcome{
			ok(2, storage.Snapshot{BatchGets: 33, BatchGetItems: 3300}),
			ok(2, storage.Snapshot{Gets: 33}),
			ok(1, storage.Snapshot{BatchGets: 2, BatchGetItems: 33}),
		}},
		{"BatchDelete of 33×limit keys", func(ctx context.Context, s *Store, keys []string) error {
			keys = keys[:33*readLimit(s)]
			if err := s.BatchDelete(ctx, keys); err != nil {
				return err
			}
			for _, k := range keys {
				if _, ok := s.get(k); ok {
					return fmt.Errorf("%s left after the delete", k)
				}
			}
			return nil
		}, [3]outcome{
			// 3 300 keys are 132 BatchWriteItems: 5 waves of 32.
			ok(5, storage.Snapshot{BatchDeletes: 132, BatchDeleteItems: 3300}),
			ok(1, storage.Snapshot{BatchDeletes: 1, BatchDeleteItems: 33}),
			ok(1, storage.Snapshot{BatchDeletes: 2, BatchDeleteItems: 33}),
		}},
		{"List", func(ctx context.Context, s *Store, _ []string) error {
			got, err := s.List(ctx, "new")
			if err == nil && len(got) != 1 {
				err = fmt.Errorf("List = %v, want [new]", got)
			}
			return err
		}, all(ok(1, storage.Snapshot{Lists: 1}))},
		{"Delete", func(ctx context.Context, s *Store, _ []string) error {
			return s.Delete(ctx, "new")
		}, all(ok(1, storage.Snapshot{Deletes: 1}))},
	}
	profiles := []struct {
		name string
		new  func(Options) *Store
		caps storage.Capabilities
	}{
		{"dynamodb", func(o Options) *Store { return NewDynamoDB(o).Store },
			storage.Capabilities{BatchWrites: true, MaxBatchSize: DynamoDBMaxBatch, Transactions: true}},
		{"s3", NewS3, storage.Capabilities{}},
		{"redis", func(o Options) *Store { return NewRedis(0, o) }, storage.Capabilities{}},
	}
	for i, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			s := p.new(Options{
				Latency: storagetest.FixedLatency(rtt, latency.OpGet, latency.OpPut, latency.OpBatchWrite, latency.OpDelete, latency.OpList),
				Sleeper: latency.RealTime,
			})
			if s.Name() != p.name || s.Capabilities() != p.caps {
				t.Fatalf("Name %q, Capabilities %+v; want %q, %+v", s.Name(), s.Capabilities(), p.name, p.caps)
			}
			keys := make([]string, 33*readLimit(s))
			for i := range keys {
				keys[i] = fmt.Sprintf("k%05d", i)
				s.put(keys[i], []byte("v"))
			}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			ctx := context.Background()
			for _, c := range script {
				before := s.Metrics().Snapshot()
				storagetest.RequireRoundTrips(t, rtt, 0, c.call+" with a cancelled context", func() error {
					return expect(c.do(cancelled, s, keys), context.Canceled)
				})
				s.SetAvailable(false)
				storagetest.RequireRoundTrips(t, rtt, 0, c.call+" while down", func() error {
					return expect(c.do(ctx, s, keys), storage.ErrUnavailable)
				})
				s.SetAvailable(true)
				want := c.want[i]
				storagetest.RequireRoundTrips(t, rtt, want.waves, c.call, func() error {
					return expect(c.do(ctx, s, keys), want.err)
				})
				if got := s.Metrics().Snapshot().Sub(before); got != want.delta {
					t.Errorf("%s counted %+v, want %+v", c.call, got, want.delta)
				}
			}
		})
	}
}

// expect returns nil if err is want (both nil included), else an error
// naming both.
func expect(err, want error) error {
	if errors.Is(err, want) {
		return nil
	}
	return fmt.Errorf("error %v, want %v", err, want)
}
