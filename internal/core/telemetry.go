package core

// telemetry.go is the node's glue onto the telemetry substrate. The
// counters themselves live in NodeMetrics (node.go) and are updated
// atomically on the hot paths; this file only snapshots them at scrape
// time and owns the node's latency histograms and trace plumbing.

import (
	"aft/internal/telemetry"
)

// TraceOf returns the live transaction's trace — nil when the
// transaction is unknown, txid is empty, or tracing is disabled. The
// nil-tracer fast path keeps the call free on untraced deployments, so
// wire-layer dispatch can probe it per op.
func (n *Node) TraceOf(txid string) *telemetry.Trace {
	if n.tracer == nil || txid == "" {
		return nil
	}
	return n.traceOf(txid)
}

// traceOf returns the live transaction's trace (nil when the transaction
// is unknown or tracing is disabled).
func (n *Node) traceOf(txid string) *telemetry.Trace {
	n.tmu.RLock()
	defer n.tmu.RUnlock()
	if t, ok := n.txns[txid]; ok {
		return t.trace
	}
	return nil
}

// CommitLatency returns a snapshot of the commit-latency histogram
// (zero-valued when telemetry is disabled).
func (n *Node) CommitLatency() telemetry.HistogramSnapshot { return n.latCommit.Snapshot() }

// RegisterTelemetry publishes the node's counters, gauges, and latency
// histograms on reg under stable aft_node_* / aft_*_latency_seconds
// names, labeled with the node ID. Safe on a nil registry.
func (n *Node) RegisterTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Register(n.EmitTelemetry)
}

// EmitTelemetry emits the node's full metric surface into one scrape.
// The cluster layer calls it per CURRENT member so scale-out nodes appear
// and killed nodes disappear without re-registering.
func (n *Node) EmitTelemetry(e *telemetry.Emitter) {
	node := n.cfg.NodeID
	if n.latCommit != nil {
		e.Histogram("aft_commit_latency_seconds",
			"CommitTransaction latency through the shim (successful commits).",
			n.latCommit.Snapshot(), "node", node)
	}
	if n.latRead != nil {
		e.Histogram("aft_read_latency_seconds",
			"Get/MultiGet per-call latency through the shim (successful reads).",
			n.latRead.Snapshot(), "node", node)
	}
	{
		m := n.metrics.Snapshot()
		c := func(name, help string, v int64) {
			e.Counter(name, help, uint64(v), "node", node)
		}
		c("aft_node_txns_started_total", "Transactions started.", m.Started)
		c("aft_node_txns_committed_total", "Transactions committed.", m.Committed)
		c("aft_node_txns_aborted_total", "Transactions aborted.", m.Aborted)
		c("aft_node_reads_total", "Key reads served (MultiGet counts each key).", m.Reads)
		c("aft_node_cache_hits_total", "Reads served from the data cache.", m.CacheHits)
		c("aft_node_spills_total", "Write-buffer spills to storage.", m.Spills)
		c("aft_node_merged_remote_total", "Commit records merged from peers.", m.MergedRemote)
		c("aft_node_pruned_merges_total", "Superseded records pruned at merge time (Algorithm 2).", m.PrunedMerges)
		c("aft_node_swept_metadata_total", "Commit records removed by the local GC sweep.", m.SweptMetadata)
		c("aft_node_multigets_total", "MultiGet calls.", m.MultiGets)
		c("aft_node_group_flushes_total", "Runs of the commit write routine, one per commit attempt that writes.", m.GroupFlushes)
		c("aft_node_grouped_commits_total", "Commits written by the commit write routine (one per run).", m.GroupedCommits)
		c("aft_overload_shed_total", "Arrivals shed by admission control (ErrOverloaded).", m.OverloadShed)
		c("aft_deadline_exceeded_total", "Ops abandoned at a ctx-deadline check.", m.DeadlineExceeded)
		c("aft_node_reaped_expired_total", "Dangling transactions aborted past their client deadline.", m.ReapedExpired)
		e.Gauge("aft_node_active_txns", "In-flight transactions.",
			float64(n.ActiveTransactions()), "node", node)
		e.Gauge("aft_node_admission_waiting", "Callers parked for a concurrency slot (bounded by AdmissionQueue).",
			float64(n.AdmissionWaiting()), "node", node)
		e.Gauge("aft_node_metadata_records", "Cached commit records (the quantity the local GC bounds).",
			float64(n.MetadataSize()), "node", node)
		e.Gauge("aft_node_metadata_bytes", "Approximate resident metadata bytes (records + data cache).",
			float64(n.MetadataBytes()), "node", node)
	}
}
