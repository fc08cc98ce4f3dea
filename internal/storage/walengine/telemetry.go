package walengine

import "aft/internal/telemetry"

// RegisterTelemetry publishes the engine's counters: the generic
// storage.Metrics operation surface (backend="wal") plus the WAL-specific
// probe — append/fsync volume with the derived coalescing ratio,
// compaction reclaim, and the crash-recovery evidence (torn tails,
// replayed records). Everything is read at scrape time from the atomics
// the durability experiments already consume.
func (s *Store) RegisterTelemetry(reg *telemetry.Registry) {
	if s == nil {
		return
	}
	s.metrics.RegisterTelemetry(reg, "wal")
	wal := &s.wal
	reg.Register(func(e *telemetry.Emitter) {
		m := wal.Snapshot()
		c := func(name, help string, v int64) {
			e.Counter("aft_wal_"+name, help, uint64(v))
		}
		c("appends_total", "Records appended to the log.", m.Appends)
		c("fsyncs_total", "File.Sync calls on the active segment.", m.Fsyncs)
		c("segment_rolls_total", "Active-segment seals.", m.SegmentRolls)
		c("compactions_total", "Completed compaction runs.", m.Compactions)
		c("compacted_segments_total", "Sealed segments rewritten and removed.", m.CompactedSegments)
		c("reclaimed_bytes_total", "Bytes freed by compaction.", m.BytesReclaimed)
		c("torn_records_total", "Torn tail frames truncated on reopen.", m.TornRecords)
		c("torn_bytes_total", "Bytes truncated from torn tails.", m.TornBytes)
		c("torn_batches_total", "Unterminated batches dropped whole on reopen.", m.TornBatches)
		c("replayed_records_total", "Records read back during reopen.", m.ReplayedRecords)
		c("checkpoints_total", "Checkpoint files written.", m.Checkpoints)
		c("checkpoints_rejected_total", "Torn or stale checkpoints skipped at reopen.", m.CheckpointsRejected)
		c("checkpoint_entries_total", "Index entries written into checkpoints.", m.CheckpointEntries)
		c("checkpoint_restored_total", "Index entries restored from checkpoints at reopen.", m.CheckpointRestored)
		c("replayed_tail_records_total", "Records replayed past a checkpoint at reopen.", m.ReplayedTailRecords)
		e.Histogram("aft_wal_fsync_seconds",
			"Time of each group-fsync round's File.Sync on the active segment.",
			s.fsyncTime.Snapshot())
		e.Gauge("aft_wal_appends_per_fsync",
			"Mean appends covered per fsync (group-fsync coalescing).",
			m.AppendsPerFsync)
		age := 0.0
		if d, ok := s.CheckpointAge(); ok {
			age = d.Seconds()
		}
		e.Gauge("aft_wal_checkpoint_age_seconds",
			"Seconds since the last checkpoint written by this process (0 before the first).",
			age)
	})
}
