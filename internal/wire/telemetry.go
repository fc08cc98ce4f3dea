package wire

import (
	"sync/atomic"

	"aft/internal/telemetry"
)

// Metrics counts wire-layer activity for one Client or Server. All
// fields are atomics updated on the frame hot paths; Snapshot copies
// them for scrapes and experiment reports.
type Metrics struct {
	FramesSent atomic.Int64 // binary frames written
	FramesRecv atomic.Int64 // binary frames read
	BytesSent  atomic.Int64 // frame bytes written (incl. length prefix)
	BytesRecv  atomic.Int64 // frame bytes read (incl. length prefix)
	Flushes    atomic.Int64 // socket flushes (frames/flush = write batching)

	PipelineDepthHW atomic.Int64 // max concurrent in-flight ops on one conn
	BinaryConns     atomic.Int64 // conns that completed the handshake
	Timeouts        atomic.Int64 // ops abandoned at their deadline (client)
}

// MetricsSnapshot is a point-in-time copy of Metrics.
type MetricsSnapshot struct {
	FramesSent, FramesRecv, BytesSent, BytesRecv, Flushes,
	PipelineDepthHW, BinaryConns, Timeouts int64
}

// Snapshot returns a copy of the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		FramesSent: m.FramesSent.Load(), FramesRecv: m.FramesRecv.Load(),
		BytesSent: m.BytesSent.Load(), BytesRecv: m.BytesRecv.Load(),
		Flushes:         m.Flushes.Load(),
		PipelineDepthHW: m.PipelineDepthHW.Load(),
		BinaryConns:     m.BinaryConns.Load(),
		Timeouts:        m.Timeouts.Load(),
	}
}

// observeDepth raises the pipeline-depth high-water mark to d.
func (m *Metrics) observeDepth(d int64) {
	for {
		hw := m.PipelineDepthHW.Load()
		if d <= hw || m.PipelineDepthHW.CompareAndSwap(hw, d) {
			return
		}
	}
}

// RegisterTelemetry publishes m under aft_wire_* names labeled with
// role ("server" or "client"). Safe on a nil registry.
func RegisterTelemetry(reg *telemetry.Registry, role string, m *Metrics) {
	if reg == nil || m == nil {
		return
	}
	reg.Register(func(e *telemetry.Emitter) {
		s := m.Snapshot()
		c := func(name, help string, v int64) {
			e.Counter(name, help, uint64(v), "role", role)
		}
		c("aft_wire_frames_sent_total", "Binary frames written.", s.FramesSent)
		c("aft_wire_frames_recv_total", "Binary frames read.", s.FramesRecv)
		c("aft_wire_bytes_sent_total", "Binary frame bytes written.", s.BytesSent)
		c("aft_wire_bytes_recv_total", "Binary frame bytes read.", s.BytesRecv)
		c("aft_wire_flushes_total", "Socket flushes; frames/flush measures write batching.", s.Flushes)
		c("aft_wire_binary_conns_total", "Connections that completed the handshake.", s.BinaryConns)
		c("aft_wire_op_timeouts_total", "Ops abandoned at their deadline.", s.Timeouts)
		e.Gauge("aft_wire_pipeline_depth_highwater",
			"Max concurrent in-flight ops observed on one connection.",
			float64(s.PipelineDepthHW), "role", role)
	})
}
