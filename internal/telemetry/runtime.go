package telemetry

// runtime.go publishes what the process spends on allocation and garbage
// collection, from runtime/metrics at scrape time — the hot path pays
// nothing for it. Per-operation allocation cost is the quotient of
// aft_go_heap_alloc_objects_total and an operation counter over the same
// window.

import "runtime/metrics"

// runtimeCounters maps each exported family to its runtime/metrics name.
var runtimeCounters = []struct{ family, help, metric string }{
	{"aft_go_heap_alloc_objects_total", "Heap objects allocated by the process.", "/gc/heap/allocs:objects"},
	{"aft_go_heap_alloc_bytes_total", "Heap bytes allocated by the process.", "/gc/heap/allocs:bytes"},
	{"aft_go_gc_cycles_total", "Completed garbage-collection cycles.", "/gc/cycles/total:gc-cycles"},
	{"aft_go_gc_cpu_seconds_total", "Estimated CPU time spent in the garbage collector, including assists and pauses.", "/cpu/classes/gc/total:cpu-seconds"},
}

// RegisterRuntime registers the Go runtime's allocation and GC counters on
// reg, read at each scrape.
func RegisterRuntime(reg *Registry) {
	if reg == nil {
		return
	}
	reg.Register(func(e *Emitter) {
		samples := make([]metrics.Sample, len(runtimeCounters))
		for i, c := range runtimeCounters {
			samples[i].Name = c.metric
		}
		metrics.Read(samples)
		for i, c := range runtimeCounters {
			switch v := samples[i].Value; v.Kind() {
			case metrics.KindUint64:
				e.Counter(c.family, c.help, v.Uint64())
			case metrics.KindFloat64:
				e.CounterFloat(c.family, c.help, v.Float64())
			}
		}
	})
}
