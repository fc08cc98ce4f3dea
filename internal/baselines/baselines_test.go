package baselines

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"aft/internal/core"
	"aft/internal/faas"
	"aft/internal/latency"
	"aft/internal/storage/kvengine"
	"aft/internal/workload"
)

func paperRequest() workload.Request {
	// 2 functions, each 1 write + 2 reads over a tiny hot key space, to
	// maximize interference in the concurrency tests.
	g := workload.NewGenerator(11, workload.NewUniform(11, 4), 2, 1, 2)
	return g.Next()
}

func TestPlainExecutesAndTraces(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	reg := workload.NewRegistry()
	p := NewPlain(PlainConfig{Store: store, Payload: []byte("pay"), Registry: reg})
	if p.Name() != "plain" {
		t.Fatal("name")
	}
	ctx := context.Background()
	req := workload.Request{Funcs: [][]Op{
		{{Kind: workload.OpWrite, Key: "k"}, {Kind: workload.OpRead, Key: "k"}},
	}[0:1]}
	tr, err := p.Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Reads) != 1 {
		t.Fatalf("reads = %d", len(tr.Reads))
	}
	obs := tr.Reads[0]
	if obs.Meta.UUID != tr.UUID || !obs.AfterOwnWrite {
		t.Fatalf("obs = %+v, trace uuid %s", obs, tr.UUID)
	}
	if _, ok := reg.Lookup(tr.UUID); !ok {
		t.Fatal("plain writer not registered")
	}
}

// Op alias to build requests tersely in this test file.
type Op = workload.Op

func TestPlainReadOfMissingKeySkipped(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	p := NewPlain(PlainConfig{Store: store, Payload: nil, Registry: workload.NewRegistry()})
	tr, err := p.Execute(context.Background(), workload.Request{Funcs: [][]Op{
		{{Kind: workload.OpRead, Key: "missing"}},
	}})
	if err != nil || len(tr.Reads) != 0 {
		t.Fatalf("trace = %+v, %v", tr, err)
	}
}

func TestPlainExposesFracturedReadsUnderConcurrency(t *testing.T) {
	// A writer repeatedly co-writes {k,l} across two functions; readers
	// read k then l directly from storage. Without a shim, interleavings
	// produce fractured observations. Microsecond-scale store latency
	// forces genuine interleaving (zero-latency loops finish within one
	// scheduler quantum and never overlap). The waits vary (Sigma), or
	// a precise sleeper keeps reader and writer in lockstep.
	store := kvengine.NewDynamoDB(kvengine.Options{
		Latency: latency.NewModel(latency.Profile{
			latency.OpGet: {Median: 100 * time.Microsecond, Sigma: 0.5},
			latency.OpPut: {Median: 100 * time.Microsecond, Sigma: 0.5},
		}, 1),
		Sleeper: latency.RealTime,
	})
	reg := workload.NewRegistry()
	p := NewPlain(PlainConfig{Store: store, Payload: []byte("x"), Registry: reg})
	ctx := context.Background()
	writeReq := workload.Request{Funcs: [][]Op{
		{{Kind: workload.OpWrite, Key: "k"}},
		{{Kind: workload.OpWrite, Key: "l"}},
	}}
	readReq := workload.Request{Funcs: [][]Op{
		{{Kind: workload.OpRead, Key: "k"}},
		{{Kind: workload.OpRead, Key: "l"}},
	}}
	// Note: writeReq's write set is {k,l}, written across two functions —
	// exactly the partial-visibility window Table 2 measures.
	var collector workload.TraceCollector
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := p.Execute(ctx, writeReq); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for i := 0; i < 400; i++ {
		tr, err := p.Execute(ctx, readReq)
		if err != nil {
			t.Fatal(err)
		}
		collector.Add(tr)
	}
	close(stop)
	wg.Wait()
	res := workload.Check(collector.Traces(), reg)
	if res.FracturedReads == 0 {
		t.Fatal("plain storage produced zero fractured reads under concurrency; detector or interleaving broken")
	}
}

func TestDynamoTxnRequiresTransactor(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	if _, err := NewDynamoTxn(DynamoTxnConfig{Store: store, Registry: workload.NewRegistry()}); err != nil {
		t.Fatalf("the DynamoDB simulator should support transactions: %v", err)
	}
}

func TestDynamoTxnNoRYWAnomalies(t *testing.T) {
	// The default GOMAXPROCS plus 2 and 4: on more than one core the
	// conflict-retry loop must give a descheduled intent-lock holder real
	// time, or the writers exhaust their retries (the tier-1 failure this
	// pins).
	t.Run("default", testDynamoTxnNoRYWAnomalies)
	for _, procs := range []int{2, 4} {
		procs := procs
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			testDynamoTxnNoRYWAnomalies(t)
		})
	}
}

func testDynamoTxnNoRYWAnomalies(t *testing.T) {
	// All writes go in one atomic transaction at the end, so a concurrent
	// writer can never interleave between "my write" and "my read" —
	// there are no reads after own writes that see foreign data the same
	// way; the paper reports RYW=0 for transaction mode.
	store := kvengine.NewDynamoDB(kvengine.Options{})
	reg := workload.NewRegistry()
	d, err := NewDynamoTxn(DynamoTxnConfig{Store: store, Payload: []byte("x"), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "dynamo-txn" {
		t.Fatal("name")
	}
	ctx := context.Background()
	var collector workload.TraceCollector
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := paperRequest()
			for i := 0; i < 100; i++ {
				tr, err := d.Execute(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				collector.Add(tr)
			}
		}()
	}
	wg.Wait()
	res := workload.Check(collector.Traces(), reg)
	if res.RYW != 0 {
		t.Fatalf("dynamo-txn produced %d RYW anomalies, want 0", res.RYW)
	}
	if res.DirtyReads != 0 {
		t.Fatalf("dirty reads = %d", res.DirtyReads)
	}
}

func TestAFTExecutorZeroAnomalies(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	node, err := core.NewNode(core.Config{NodeID: "n1", Store: store})
	if err != nil {
		t.Fatal(err)
	}
	platform, err := faas.New(faas.Config{Client: node})
	if err != nil {
		t.Fatal(err)
	}
	reg := workload.NewRegistry()
	a := NewAFT(AFTConfig{Platform: platform, Payload: []byte("x"), Registry: reg})
	if a.Name() != "aft" {
		t.Fatal("name")
	}
	ctx := context.Background()
	var collector workload.TraceCollector
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := workload.NewGenerator(int64(w), workload.NewUniform(int64(w), 4), 2, 1, 2)
			for i := 0; i < 100; i++ {
				tr, err := a.Execute(ctx, g.Next())
				if err != nil {
					t.Error(err)
					return
				}
				collector.Add(tr)
			}
		}(w)
	}
	wg.Wait()
	res := workload.Check(collector.Traces(), reg)
	if res.RYW != 0 || res.FracturedReads != 0 || res.DirtyReads != 0 {
		t.Fatalf("AFT produced anomalies: %+v", res)
	}
	if res.Requests != 400 {
		t.Fatalf("requests = %d", res.Requests)
	}
}

func TestAFTExecutorRegistersCommitIDs(t *testing.T) {
	store := kvengine.NewDynamoDB(kvengine.Options{})
	node, _ := core.NewNode(core.Config{NodeID: "n1", Store: store})
	platform, _ := faas.New(faas.Config{Client: node})
	reg := workload.NewRegistry()
	a := NewAFT(AFTConfig{Platform: platform, Payload: []byte("x"), Registry: reg})
	tr, err := a.Execute(context.Background(), workload.Request{Funcs: [][]Op{
		{{Kind: workload.OpWrite, Key: "k"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	id, ok := reg.Lookup(tr.UUID)
	if !ok || id.Timestamp == 0 {
		t.Fatalf("commit ID not registered: %v, %v", id, ok)
	}
}
