package main

// This file is the only place the harness reads the program's own counters
// (the public Metrics()/WAL()/Bus()/FaultManager() snapshots). Everything
// else is measured from outside, by the decorators in storewrap.go and
// client.go. If a counter is renamed or removed, this is the file to fix.

import (
	"fmt"
	"runtime"
	"time"

	"aft/aft"
	"aft/internal/records"
	"aft/internal/storage/walengine"
)

// counters is one reading of every in-program counter a per-layer metric
// is derived from. All fields are running totals; sub gives a window.
type counters struct {
	// wire, client and server side of the TCP loopback.
	ClientFrames, ClientBytes, ClientFlushes int64
	ServerFrames, ServerFlushes              int64
	// core, summed over the deployment's nodes.
	Started, Committed, Reads, CacheHits int64
	GroupFlushes, GroupedCommits, Shed   int64
	// NodeStarted is Started per node, in node-ID order.
	NodeStarted []int64
	// wal.
	Appends, Fsyncs, Compactions int64
	// multicast and fault manager.
	Broadcast, Deliveries, Pruned int64
	VersionsDeleted               int64
}

// walStore is the part of the WAL engine the harness needs beyond
// aft.Store: its counters, and the two ways of shutting it.
type walStore interface {
	WAL() *walengine.Metrics
	Crash() error
	Close() error
}

func readCounters(d *deployment) counters {
	var c counters
	if d.remote != nil {
		m := d.remote.Metrics().Snapshot()
		c.ClientFrames, c.ClientFlushes = m.FramesSent, m.Flushes
		c.ClientBytes = m.BytesSent + m.BytesRecv
	}
	if d.server != nil {
		m := d.server.Metrics().Snapshot()
		c.ServerFrames, c.ServerFlushes = m.FramesSent, m.Flushes
	}
	for _, n := range d.nodes() {
		m := n.Metrics().Snapshot()
		c.Started += m.Started
		c.Committed += m.Committed
		c.Reads += m.Reads
		c.CacheHits += m.CacheHits
		c.GroupFlushes += m.GroupFlushes
		c.GroupedCommits += m.GroupedCommits
		c.Shed += m.OverloadShed + m.BudgetShed
		c.NodeStarted = append(c.NodeStarted, m.Started)
	}
	if w, ok := d.store.(walStore); ok {
		m := w.WAL().Snapshot()
		c.Appends, c.Fsyncs, c.Compactions = m.Appends, m.Fsyncs, m.Compactions
	}
	bus := d.cluster.Bus().Metrics().Snapshot()
	c.Broadcast, c.Deliveries, c.Pruned = bus.Broadcast, bus.Deliveries, bus.Pruned
	c.VersionsDeleted = d.cluster.FaultManager().Metrics().Snapshot().VersionsDeleted
	return c
}

func (c counters) sub(p counters) counters {
	out := counters{
		ClientFrames: c.ClientFrames - p.ClientFrames, ClientBytes: c.ClientBytes - p.ClientBytes,
		ClientFlushes: c.ClientFlushes - p.ClientFlushes,
		ServerFrames:  c.ServerFrames - p.ServerFrames, ServerFlushes: c.ServerFlushes - p.ServerFlushes,
		Started: c.Started - p.Started, Committed: c.Committed - p.Committed,
		Reads: c.Reads - p.Reads, CacheHits: c.CacheHits - p.CacheHits,
		GroupFlushes: c.GroupFlushes - p.GroupFlushes, GroupedCommits: c.GroupedCommits - p.GroupedCommits,
		Shed:    c.Shed - p.Shed,
		Appends: c.Appends - p.Appends, Fsyncs: c.Fsyncs - p.Fsyncs, Compactions: c.Compactions - p.Compactions,
		Broadcast: c.Broadcast - p.Broadcast, Deliveries: c.Deliveries - p.Deliveries, Pruned: c.Pruned - p.Pruned,
		VersionsDeleted: c.VersionsDeleted - p.VersionsDeleted,
	}
	for i, v := range c.NodeStarted {
		if i < len(p.NodeStarted) {
			v -= p.NodeStarted[i]
		}
		out.NodeStarted = append(out.NodeStarted, v)
	}
	return out
}

// metadataRecords is the commit records the deployment's nodes hold in
// memory, summed.
func metadataRecords(nodes []*aft.Node) int {
	total := 0
	for _, n := range nodes {
		total += n.MetadataSize()
	}
	return total
}

// recordsCodecCalls is how many Marshal and Unmarshal calls the commit
// record codec is timed over.
const recordsCodecCalls = 100_000

// recordsCodec times CommitRecord.Marshal and UnmarshalCommitRecord on the
// record a 2-key transaction commits: mean ns per call of each, and heap
// allocations per Marshal. Run it while nothing else in the process is
// working, or the allocation count picks up bystanders.
func recordsCodec() (marshalNs, unmarshalNs, marshalAllocs float64, err error) {
	rec := records.NewCommitRecord(
		aft.ID{Timestamp: 1_700_000_000_000_000_000, UUID: "0123456789abcdef0123456789abcdef"},
		[]string{"k000001", "k000002"}, "aft-1")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var enc []byte
	start := time.Now()
	for i := 0; i < recordsCodecCalls; i++ {
		if enc, err = rec.Marshal(); err != nil {
			return 0, 0, 0, fmt.Errorf("records marshal: %w", err)
		}
	}
	marshalNs = float64(time.Since(start)) / recordsCodecCalls
	runtime.ReadMemStats(&ms)
	marshalAllocs = float64(ms.Mallocs-mallocs) / recordsCodecCalls
	start = time.Now()
	for i := 0; i < recordsCodecCalls; i++ {
		got, err := records.UnmarshalCommitRecord(enc)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("records unmarshal: %w", err)
		}
		if len(got.WriteSet) != 2 {
			return 0, 0, 0, fmt.Errorf("records round trip lost the write set: %+v", got)
		}
	}
	unmarshalNs = float64(time.Since(start)) / recordsCodecCalls
	return marshalNs, unmarshalNs, marshalAllocs, nil
}
