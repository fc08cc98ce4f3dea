package bench

// Chaos over the network: transactions on the real TCP wire path with
// transient storage faults injected underneath the node, verifying the
// redo-until-commit discipline end to end — injected errors cross the
// protocol as the retriable unavailable code, commits retry idempotently
// under their own transaction ID, and the history checker proves the §3.2
// guarantees held for everything the clients observed.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aft/aft"
	"aft/internal/chaos"
	"aft/internal/checker"
	"aft/internal/core"
	"aft/internal/records"
	"aft/internal/storage/kvengine"
	"aft/internal/workload"
)

func TestIntegrationWireChaosRedoUntilCommit(t *testing.T) {
	checkGoroutineLeak(t)
	ctx := context.Background()
	st := chaos.Wrap(kvengine.NewDynamoDB(kvengine.Options{}), chaos.Config{
		Seed: 11, ErrorRate: 0.08, PartialRate: 0.15,
	})
	node, err := core.NewNode(core.Config{NodeID: "wire-chaos", Store: st, EnableDataCache: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := aft.Serve(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := aft.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// 8 KB values: a request writing one distinct key commits its record
	// alone (an inline record), one writing more commits in two phases,
	// whose BatchPut the injector can split.
	check := checker.New()
	runner := &chaos.Runner{Client: client, Payload: workload.Payload(11, 8<<10), Check: check}

	const keys = 32
	var seedOps []workload.Op
	for i := 0; i < keys; i++ {
		seedOps = append(seedOps, workload.Op{Kind: workload.OpWrite, Key: workload.KeyName(i)})
	}
	if err := runner.Do(ctx, workload.Request{Funcs: [][]workload.Op{seedOps}}); err != nil {
		t.Fatalf("seeding: %v", err)
	}

	st.SetEnabled(true)
	const requests = 150
	gen := workload.NewGenerator(11, workload.NewZipf(111, keys, 1.0), 2, 2, 2)
	for i := 0; i < requests; i++ {
		if err := runner.Do(ctx, gen.Next()); err != nil {
			t.Fatalf("request %d not committed despite redo-until-commit: %v", i, err)
		}
	}

	// The faults must actually have fired AND been survived: every request
	// committed, and the recovery machinery (redo or idempotent commit
	// retry) engaged at least once.
	fm := st.FaultMetrics().Snapshot()
	if fm.Errors == 0 || fm.PartialBatchPuts == 0 {
		t.Fatalf("chaos injected nothing meaningful: %+v", fm)
	}
	rm := runner.Metrics().Snapshot()
	if rm.Commits != requests+1 {
		t.Fatalf("commits = %d, want %d", rm.Commits, requests+1)
	}
	if rm.Redos == 0 && rm.CommitRetries == 0 {
		t.Fatalf("no redo or commit retry engaged under %d injected faults", fm.Errors)
	}

	// aft.RunTransaction must survive the same faults over the wire: the
	// retriable classification (transient unavailability) plus idempotent
	// commit retries are its job, not the test harness's.
	for i := 0; i < 25; i++ {
		key := workload.KeyName(i % keys)
		err := aft.RunTransaction(ctx, client, func(txn *aft.Txn) error {
			v, err := txn.Get(key)
			if err != nil {
				return err
			}
			m, _, err := workload.Unwrap(v)
			if err != nil {
				return err
			}
			check.RecordTrace(workload.Trace{UUID: txn.ID(), Reads: []workload.ReadObs{{Key: key, Meta: m}}})
			return nil
		})
		if err != nil {
			t.Fatalf("RunTransaction %d over the wire: %v", i, err)
		}
	}

	// Quiesce and audit.
	st.SetEnabled(false)
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
		t.Fatalf("verdict: %s\nviolations:\n%v", v, v.Violations)
	}
}

// TestIntegrationWireTransientErrorCode pins the transport contract the
// redo discipline depends on: an injected storage fault inside a remote
// operation surfaces to the wire client as storage.ErrUnavailable (and is
// therefore retriable), not as an opaque remote error.
func TestIntegrationWireTransientErrorCode(t *testing.T) {
	checkGoroutineLeak(t)
	ctx := context.Background()
	st := chaos.Wrap(kvengine.NewDynamoDB(kvengine.Options{}), chaos.Config{Seed: 3, ErrorRate: 1})
	node, err := core.NewNode(core.Config{NodeID: "wire-err", Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := aft.Serve(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := aft.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	txid, err := client.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Put(ctx, txid, "k", []byte("v")); err != nil {
		t.Fatal(err) // Put only buffers; no storage op yet
	}
	st.SetEnabled(true)
	_, err = client.CommitTransaction(ctx, txid)
	if !errors.Is(err, aft.ErrUnavailable) {
		t.Fatalf("remote injected fault = %v, want storage.ErrUnavailable across the wire", err)
	}
	st.SetEnabled(false)
	// The transaction is still live server-side; the idempotent retry of
	// the SAME transaction must now land.
	id, err := client.CommitTransaction(ctx, txid)
	if err != nil {
		t.Fatalf("commit retry after transient failure: %v", err)
	}
	if id.UUID != txid {
		t.Fatalf("commit ID %v does not match transaction %s", id, txid)
	}
	// And the write is durable under that ID, inside its record.
	rec, err := st.Get(ctx, fmt.Sprintf("aft/c/%s", id))
	if err != nil {
		t.Fatalf("committed record missing after retried commit: %v", err)
	}
	if v, err := records.InlineValue(rec, "k"); err != nil || string(v) != "v" {
		t.Fatalf("committed version after retried commit = %q, %v", v, err)
	}
}
