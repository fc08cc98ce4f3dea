package telemetry_test

import (
	"context"
	"testing"

	"aft/internal/core"
	"aft/internal/storage/kvengine"
	"aft/internal/telemetry"
)

// TestRuntimeAllocCounterAdvancesOverCommit: the runtime families are
// exported as counters, and the heap-object counter advances across one
// committed transaction. Its 64 KiB value is a large object, which the
// runtime counts at allocation, not when a cached span is refilled.
func TestRuntimeAllocCounterAdvancesOverCommit(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntime(reg)
	scrape := func() map[string]float64 {
		out := map[string]float64{}
		for _, f := range reg.Gather() {
			if f.Type != "counter" || len(f.Samples) != 1 {
				t.Fatalf("%s: type %s with %d samples, want one counter sample", f.Name, f.Type, len(f.Samples))
			}
			out[f.Name] = f.Samples[0].Value
		}
		return out
	}
	n, err := core.NewNode(core.Config{NodeID: "rt", Store: kvengine.NewDynamoDB(kvengine.Options{})})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before := scrape()
	for _, fam := range []string{
		"aft_go_heap_alloc_objects_total", "aft_go_heap_alloc_bytes_total",
		"aft_go_gc_cycles_total", "aft_go_gc_cpu_seconds_total",
	} {
		if _, ok := before[fam]; !ok {
			t.Fatalf("family %s not exported", fam)
		}
	}
	txid, err := n.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Put(ctx, txid, "k", make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	after := scrape()
	if d := after["aft_go_heap_alloc_objects_total"] - before["aft_go_heap_alloc_objects_total"]; d < 2 {
		t.Fatalf("heap-object counter advanced by %v over a committed transaction, want >= 2", d)
	}
	if d := after["aft_go_heap_alloc_bytes_total"] - before["aft_go_heap_alloc_bytes_total"]; d < 2*64<<10 {
		t.Fatalf("heap-byte counter advanced by %v, want >= %d", d, 2*64<<10)
	}
}
