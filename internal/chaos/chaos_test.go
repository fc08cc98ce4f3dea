package chaos

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aft/internal/storage"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/storagetest"
)

// TestConformanceTransparentWithFaultsDisabled runs the full storagetest
// conformance suite (including the batch contracts) against the chaos
// wrapper over every simulated engine, with faults disabled: the wrapper
// must be an indistinguishable storage.Store.
func TestConformanceTransparentWithFaultsDisabled(t *testing.T) {
	engines := map[string]func() storage.Store{
		"dynamodb": func() storage.Store { return kvengine.NewDynamoDB(kvengine.Options{}) },
		"s3":       func() storage.Store { return kvengine.NewS3(kvengine.Options{}) },
		"redis":    func() storage.Store { return kvengine.NewRedis(4, kvengine.Options{}) },
	}
	for name, inner := range engines {
		t.Run(name, func(t *testing.T) {
			storagetest.Run(t, func() storage.Store {
				return Wrap(inner(), Config{Seed: 1})
			})
		})
	}
}

// TestConformanceZeroRatesEnabled proves enabling injection with all rates
// at zero is still transparent (the gate draws but never fires).
func TestConformanceZeroRatesEnabled(t *testing.T) {
	storagetest.Run(t, func() storage.Store {
		s := Wrap(kvengine.NewDynamoDB(kvengine.Options{}), Config{Seed: 7})
		s.SetEnabled(true)
		return s
	})
}

func TestInjectedErrorsMatchBothSentinels(t *testing.T) {
	s := Wrap(kvengine.NewDynamoDB(kvengine.Options{}), Config{Seed: 3, ErrorRate: 1})
	s.SetEnabled(true)
	_, err := s.Get(context.Background(), "k")
	if err == nil {
		t.Fatal("ErrorRate=1 Get succeeded")
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("injected error %v must match ErrInjected and storage.ErrUnavailable", err)
	}
	if s.FaultMetrics().Snapshot().Errors != 1 {
		t.Fatalf("Errors = %d, want 1", s.FaultMetrics().Snapshot().Errors)
	}
	// The failure was injected BEFORE the engine applied anything.
	s.SetEnabled(false)
	if err := s.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.SetEnabled(true)
	if err := s.Put(context.Background(), "k", []byte("v2")); err == nil {
		t.Fatal("ErrorRate=1 Put succeeded")
	}
	s.SetEnabled(false)
	if v, err := s.Get(context.Background(), "k"); err != nil || string(v) != "v" {
		t.Fatalf("failed Put leaked state: %q, %v", v, err)
	}
}

// TestPartialBatchPut verifies the partial-failure contract: a
// deterministic subset of the batch is durably applied, at least one key
// fails, and the call errors.
func TestPartialBatchPut(t *testing.T) {
	ctx := context.Background()
	inner := kvengine.NewDynamoDB(kvengine.Options{})
	s := Wrap(inner, Config{Seed: 5, PartialRate: 1})
	s.SetEnabled(true)

	items := make(map[string][]byte)
	for i := 0; i < 10; i++ {
		items[fmt.Sprintf("pk-%d", i)] = []byte{byte(i)}
	}
	err := s.BatchPut(ctx, items)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("partial BatchPut = %v, want injected error", err)
	}
	s.SetEnabled(false)
	applied, failed := 0, 0
	for k := range items {
		if _, err := inner.Get(ctx, k); err == nil {
			applied++
		} else {
			failed++
		}
	}
	if applied == 0 || failed == 0 {
		t.Fatalf("partial BatchPut applied %d / failed %d keys, want both nonzero", applied, failed)
	}
	if got := s.FaultMetrics().Snapshot().PartialBatchPuts; got != 1 {
		t.Fatalf("PartialBatchPuts = %d, want 1", got)
	}

	// The applied/failed partition is a pure function of seed and keys.
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	a1, f1 := s.split(keys)
	a2, f2 := s.split(keys)
	if fmt.Sprint(a1, f1) != fmt.Sprint(a2, f2) {
		t.Fatal("split is not deterministic")
	}
	if len(f1) == 0 {
		t.Fatal("split failed no keys")
	}
}

func TestPartialBatchGetReturnsSubsetAndError(t *testing.T) {
	ctx := context.Background()
	inner := kvengine.NewDynamoDB(kvengine.Options{})
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("g-%d", i)
		if err := inner.Put(ctx, keys[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s := Wrap(inner, Config{Seed: 9, PartialRate: 1})
	s.SetEnabled(true)
	got, err := s.BatchGet(ctx, keys)
	if !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("partial BatchGet err = %v, want transient", err)
	}
	if len(got) == 0 || len(got) >= len(keys) {
		t.Fatalf("partial BatchGet returned %d/%d values, want a strict subset", len(got), len(keys))
	}
}

func TestPartialBatchDelete(t *testing.T) {
	ctx := context.Background()
	inner := kvengine.NewDynamoDB(kvengine.Options{})
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("d-%d", i)
		if err := inner.Put(ctx, keys[i], []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	s := Wrap(inner, Config{Seed: 11, PartialRate: 1})
	s.SetEnabled(true)
	if err := s.BatchDelete(ctx, keys); !errors.Is(err, ErrInjected) {
		t.Fatalf("partial BatchDelete = %v, want injected error", err)
	}
	deleted, remaining := 0, 0
	for _, k := range keys {
		if _, err := inner.Get(ctx, k); errors.Is(err, storage.ErrNotFound) {
			deleted++
		} else {
			remaining++
		}
	}
	if deleted == 0 || remaining == 0 {
		t.Fatalf("partial BatchDelete deleted %d / kept %d, want both nonzero", deleted, remaining)
	}
}

// TestDeterministicDecisionStream replays one operation sequence against
// two wrappers with the same seed: every fault decision must land on the
// same operation.
func TestDeterministicDecisionStream(t *testing.T) {
	run := func() ([]int, MetricsSnapshot) {
		ctx := context.Background()
		s := Wrap(kvengine.NewDynamoDB(kvengine.Options{}), Config{Seed: 21, ErrorRate: 0.2, PartialRate: 0.3, SpikeRate: 0.1})
		s.SetEnabled(true)
		var failedAt []int
		for i := 0; i < 200; i++ {
			var err error
			switch i % 4 {
			case 0:
				err = s.Put(ctx, fmt.Sprintf("k-%d", i), []byte{1})
			case 1:
				_, err = s.Get(ctx, fmt.Sprintf("k-%d", i-1))
			case 2:
				err = s.BatchPut(ctx, map[string][]byte{
					fmt.Sprintf("b-%d-a", i): {1}, fmt.Sprintf("b-%d-b", i): {2},
				})
			case 3:
				_, err = s.List(ctx, "k-")
			}
			if err != nil {
				failedAt = append(failedAt, i)
			}
		}
		return failedAt, s.FaultMetrics().Snapshot()
	}
	f1, m1 := run()
	f2, m2 := run()
	if fmt.Sprint(f1) != fmt.Sprint(f2) {
		t.Fatalf("fault positions differ:\n%v\n%v", f1, f2)
	}
	if m1 != m2 {
		t.Fatalf("metrics differ: %+v vs %+v", m1, m2)
	}
	if len(f1) == 0 {
		t.Fatal("no faults fired at these rates")
	}
}

// TestCrashAfterFiresOnceAtTheScheduledOperation verifies scheduled crash
// points: the hook runs synchronously at the chosen operation and exactly
// once.
func TestCrashAfterFiresOnceAtTheScheduledOperation(t *testing.T) {
	ctx := context.Background()
	s := Wrap(kvengine.NewDynamoDB(kvengine.Options{}), Config{Seed: 1})
	fired := 0
	var atOp int64
	if err := s.Put(ctx, "warm", nil); err != nil {
		t.Fatal(err)
	}
	s.CrashAfter(3, func() { fired++; atOp = s.Ops() })
	for i := 0; i < 6; i++ {
		if err := s.Put(ctx, fmt.Sprintf("k-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 1 {
		t.Fatalf("crash hook fired %d times, want 1", fired)
	}
	if atOp != 4 {
		t.Fatalf("crash hook fired at op %d, want 4 (1 warm-up + 3)", atOp)
	}
	if s.FaultMetrics().Snapshot().Crashes != 1 {
		t.Fatal("Crashes metric not counted")
	}
}
