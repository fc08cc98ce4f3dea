package storage

import "aft/internal/telemetry"

// RegisterTelemetry publishes the engine's operation counters under the
// aft_storage_* families with a backend label, so a deployment running
// several engines (e.g. a WAL store behind a chaos injector) exposes each
// surface distinguishably from one /metrics endpoint. Counters are read at
// scrape time from the same atomics the experiments consume — registering
// costs nothing on the data path.
func (m *Metrics) RegisterTelemetry(reg *telemetry.Registry, backend string) {
	if m == nil {
		return
	}
	reg.Register(func(e *telemetry.Emitter) {
		s := m.Snapshot()
		c := func(name, help string, v int64) {
			e.Counter("aft_storage_"+name, help, uint64(v), "backend", backend)
		}
		c("gets_total", "Point Get round trips.", s.Gets)
		c("puts_total", "Point Put round trips.", s.Puts)
		c("batch_puts_total", "BatchPut round trips.", s.Batches)
		c("batch_put_items_total", "Items written across BatchPut round trips.", s.BatchItems)
		c("batch_gets_total", "BatchGet requests, one per chunk.", s.BatchGets)
		c("batch_get_items_total", "Keys requested across BatchGet requests.", s.BatchGetItems)
		c("batch_deletes_total", "BatchDelete requests, one per chunk.", s.BatchDeletes)
		c("batch_delete_items_total", "Keys removed across BatchDelete requests.", s.BatchDeleteItems)
		c("deletes_total", "Point Delete round trips.", s.Deletes)
		c("lists_total", "List round trips.", s.Lists)
		c("transacts_total", "Transactional round trips.", s.Transacts)
		c("conflicts_total", "Transactional conflicts.", s.Conflicts)
		e.Gauge("aft_storage_items_per_batch_put",
			"Mean items per BatchPut round trip (write coalescing).",
			s.ItemsPerBatch(), "backend", backend)
		e.Gauge("aft_storage_items_per_batch_get",
			"Mean keys per BatchGet request (read coalescing).",
			s.ItemsPerBatchGet(), "backend", backend)
	})
}
