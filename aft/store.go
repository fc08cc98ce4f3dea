package aft

import (
	"aft/internal/latency"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/walengine"
)

// LatencyMode selects how a simulated storage backend behaves in time.
type LatencyMode int

// Latency modes for the simulated backends.
const (
	// LatencyNone makes every storage operation instantaneous — the mode
	// for unit tests and functional use.
	LatencyNone LatencyMode = iota
	// LatencyCloud injects each backend's cloud-calibrated latency
	// distribution (DynamoDB ≈ 3-4 ms point ops, S3 ≈ tens of ms with a
	// heavy tail, Redis ≈ 0.5 ms), at full speed.
	LatencyCloud
	// LatencyCloudFast injects the same distributions scaled 10× faster,
	// for quicker experiment runs with preserved shape.
	LatencyCloudFast
)

func sleeperFor(mode LatencyMode) *latency.Sleeper {
	switch mode {
	case LatencyCloud:
		return latency.RealTime
	case LatencyCloudFast:
		return &latency.Sleeper{Scale: 0.1}
	default:
		return latency.NoSleep
	}
}

func modelFor(mode LatencyMode, profile latency.Profile, seed int64) *latency.Model {
	if mode == LatencyNone {
		return nil
	}
	return latency.NewModel(profile, seed)
}

// NewDynamoDBStore returns a simulated DynamoDB table: durable point
// operations, 25-item batch writes, and a serializable transaction mode.
func NewDynamoDBStore(mode LatencyMode, seed int64) Store {
	return kvengine.NewDynamoDB(kvengine.Options{
		Latency: modelFor(mode, latency.DynamoDBProfile(), seed),
		Sleeper: sleeperFor(mode),
	})
}

// NewS3Store returns a simulated S3 bucket: no batching, high-variance
// latency.
func NewS3Store(mode LatencyMode, seed int64) Store {
	return kvengine.NewS3(kvengine.Options{
		Latency: modelFor(mode, latency.S3Profile(), seed),
		Sleeper: sleeperFor(mode),
	})
}

// NewWALStore opens (or creates) the disk-backed write-ahead-log engine in
// dir — the repository's genuinely durable backend: writes are
// acknowledged only after a (group-coalesced) fsync, and reopening the
// directory replays the log back to the acknowledged state. Unlike the
// simulators it takes no latency mode: its latency is the real disk's.
func NewWALStore(dir string) (Store, error) {
	return walengine.Open(dir, walengine.Options{})
}

// NewRedisStore returns a simulated cluster-mode Redis with the given
// shard count (0 means 2, the paper's configuration): memory-speed
// operations, per-shard linearizability, single-shard MSET only.
func NewRedisStore(mode LatencyMode, seed int64, shards int) Store {
	return kvengine.NewRedis(shards, kvengine.Options{
		Latency: modelFor(mode, latency.RedisProfile(), seed),
		Sleeper: sleeperFor(mode),
	})
}
