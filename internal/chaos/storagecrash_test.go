package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aft/internal/checker"
	"aft/internal/cluster"
	"aft/internal/records"
	"aft/internal/storage"
	"aft/internal/storage/storagetest"
	"aft/internal/storage/walengine"
	"aft/internal/workload"
)

// TestStorageCrashPlanFiresAndRecovers drives a WAL engine through a
// scheduled crash plan: every crash+reopen must fire at its operation
// index, and every previously acknowledged write must read back after
// each recovery.
func TestStorageCrashPlanFiresAndRecovers(t *testing.T) {
	ctx := context.Background()
	eng, err := walengine.Open(t.TempDir(), walengine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st := Wrap(eng, Config{Seed: 1})
	plan := ScheduleStorageCrashes(st, eng, 3, 10)

	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k-%02d", i)
		if err := st.Put(ctx, k, []byte(k)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		// Every acknowledged write so far must still be there, across
		// however many crash+reopen cycles have fired.
		for j := 0; j <= i; j++ {
			kk := fmt.Sprintf("k-%02d", j)
			v, err := st.Get(ctx, kk)
			if err != nil || string(v) != kk {
				t.Fatalf("after op %d (crashes=%d): Get(%s) = %q, %v",
					i, plan.Crashes(), kk, v, err)
			}
		}
	}
	if err := plan.Err(); err != nil {
		t.Fatal(err)
	}
	if plan.Crashes() != 3 || plan.Pending() != 0 {
		t.Fatalf("crashes = %d pending = %d, want 3 and 0", plan.Crashes(), plan.Pending())
	}
	if got := st.FaultMetrics().Snapshot().Crashes; got != 3 {
		t.Fatalf("wrapper crash-hook count = %d, want 3", got)
	}
}

// TestStorageCrashPlanSurfacesReopenFailure pins the failure surface: if
// the engine cannot reopen, the plan must report it rather than letting
// the campaign limp on against a dead store.
func TestStorageCrashPlanSurfacesReopenFailure(t *testing.T) {
	ctx := context.Background()
	eng, err := walengine.Open(t.TempDir(), walengine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st := Wrap(eng, Config{Seed: 1})
	plan := ScheduleStorageCrashes(st, brokenReopen{eng}, 1, 2)
	for i := 0; i < 4; i++ {
		err = st.Put(ctx, fmt.Sprintf("k%d", i), nil)
	}
	if !errors.Is(err, storage.ErrUnavailable) {
		t.Fatalf("Put against unreopened engine = %v, want ErrUnavailable", err)
	}
	if plan.Err() == nil {
		t.Fatal("plan swallowed the reopen failure")
	}
}

// brokenReopen crashes for real but refuses to come back.
type brokenReopen struct{ eng *walengine.Store }

func (b brokenReopen) Crash() error  { return b.eng.Crash() }
func (b brokenReopen) Reopen() error { return errors.New("disk gone") }

// TestConformanceChaosOverWAL runs the shared storage contract over the
// chaos wrapper around the disk engine (faults off): the pass-through must
// be transparent for the durable backend exactly as for the sims.
func TestConformanceChaosOverWAL(t *testing.T) {
	storagetest.Run(t, func() storage.Store {
		eng, err := walengine.Open(t.TempDir(), walengine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return Wrap(eng, Config{Seed: 7})
	})
}

// TestPartialBatchesOverWALNeverLandARecordAlone pins why the wrapper
// masks AtomicBatches: with PartialRate set it durably applies a subset of
// a BatchPut, so over the WAL — which reports its batches atomic, and would
// be handed each commit's data and record in one call — it could land a
// commit record whose data then fails its retry. Masked, the node keeps
// §3.3's two ordered phases: after 200 commits through partial batches and
// failing point writes, a storage crash and a reopen, every durable commit
// record's write set is readable and the history checks clean. Each commit
// writes three 6 KB values, too many to ride inside its record, so every
// commit takes the two phases.
func TestPartialBatchesOverWALNeverLandARecordAlone(t *testing.T) {
	ctx := context.Background()
	eng, err := walengine.Open(t.TempDir(), walengine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !Wrap(eng, Config{Seed: 3, ErrorRate: 0.1}).Capabilities().AtomicBatches {
		t.Fatal("a wrapper that never splits a batch must forward AtomicBatches")
	}
	st := Wrap(eng, Config{Seed: 3, ErrorRate: 0.1, PartialRate: 0.3})
	if st.Capabilities().AtomicBatches {
		t.Fatal("a wrapper that splits batches reports them atomic")
	}

	c, err := cluster.New(cluster.Config{Nodes: 1, Store: st, MulticastPeriod: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	check := checker.New()
	runner := &Runner{Client: c.Client(), Payload: workload.Payload(1, 6<<10), Check: check}

	const workers, perWorker, keys = 4, 50, 16
	st.SetEnabled(true)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var ops []workload.Op
				for j := 0; j < 3; j++ {
					ops = append(ops, workload.Op{Kind: workload.OpWrite, Key: workload.KeyName((w + i + 5*j) % keys)})
				}
				if err := runner.Do(ctx, workload.Request{Funcs: [][]workload.Op{ops}}); err != nil {
					t.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st.SetEnabled(false)
	if t.Failed() {
		return
	}
	if fm := st.FaultMetrics().Snapshot(); fm.PartialBatchPuts == 0 || fm.Errors == 0 {
		t.Fatalf("the campaign injected no partial batch or no failure: %+v", fm)
	}

	if err := eng.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Reopen(); err != nil {
		t.Fatal(err)
	}
	recs, err := eng.List(ctx, records.CommitPrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < workers*perWorker {
		t.Fatalf("%d durable commit records, want >= %d", len(recs), workers*perWorker)
	}
	for _, rk := range recs {
		payload, err := eng.Get(ctx, rk)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := records.UnmarshalCommitRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range rec.WriteSet {
			if rec.Inline {
				_, err = records.InlineValue(payload, k)
			} else {
				_, err = eng.Get(ctx, rec.EntryKey(i))
			}
			if err != nil {
				t.Fatalf("commit record %s is durable, its data for %q is not: %v", rk, k, err)
			}
		}
	}

	if _, err := check.ResolveStorage(ctx, st); err != nil {
		t.Fatal(err)
	}
	keyNames := make([]string, keys)
	for i := range keyNames {
		keyNames[i] = workload.KeyName(i)
	}
	final, err := runner.FinalState(ctx, keyNames)
	if err != nil {
		t.Fatal(err)
	}
	if v := check.Verdict(final); !v.Clean() {
		t.Fatalf("verdict: %s\n%v", v, v.Violations)
	}
}
