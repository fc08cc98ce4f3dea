package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"aft/internal/cluster"
	"aft/internal/core"
	"aft/internal/stats"
	"aft/internal/workload"
)

// ShardedTable renders measured cells as the experiment's table.
func ShardedTable(cells []ShardedCell) (Table, error) {
	table := Table{
		Title: "Sharded vs broadcast metadata exchange (uniform writes)",
		Header: []string{"mode", "nodes", "throughput", "p50 ms", "p99 ms",
			"mean index", "index share", "deliveries"},
		Notes: []string{
			"mean index: mean per-node commit-index size after the final multicast round",
			"index share: mean index / committed txns (~1.0 broadcast, ~1/N sharded)",
			"deliveries: record x peer multicast deliveries (0 sharded = affinity routed every write to its owner)",
		},
	}

	for _, r := range cells {
		mode := "broadcast"
		if r.Sharded {
			mode = "sharded"
		}
		table.Rows = append(table.Rows, []string{
			mode, fmt.Sprint(r.Nodes),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.2f", stats.Millis(r.Latency.Median)),
			fmt.Sprintf("%.2f", stats.Millis(r.Latency.P99)),
			fmt.Sprintf("%.1f", r.MeanIndex),
			fmt.Sprintf("%.2f", r.IndexShare()),
			fmt.Sprint(r.Deliveries),
		})
	}
	return table, nil
}

// ShardedCell is one (mode, nodes) measurement, exposed for the bench
// harness's machine-readable output.
type ShardedCell struct {
	Sharded    bool
	Nodes      int
	Throughput float64 // txn/s, paper-equivalent
	Latency    stats.Summary
	Committed  int64   // total transactions committed in the window
	MeanIndex  float64 // mean per-node commit-index size
	Deliveries int64   // record x peer multicast deliveries
}

// IndexShare is the mean per-node commit-index size normalized by total
// committed transactions: ~1.0 in broadcast mode (every node caches every
// record), ~1/N plus the committer's share in sharded mode.
func (c ShardedCell) IndexShare() float64 {
	if c.Committed == 0 {
		return 0
	}
	return c.MeanIndex / float64(c.Committed)
}

// runShardedCell measures one cluster configuration.
func runShardedCell(ctx context.Context, opts Options, nodes int, sharded bool,
	clientsPerNode int, window time.Duration, keys int, payload []byte) (ShardedCell, error) {
	cell := ShardedCell{Sharded: sharded, Nodes: nodes}
	c, err := cluster.New(cluster.Config{
		Nodes:   nodes,
		Sharded: sharded,
		Store:   opts.newStore(kindDynamo),
		Node: core.Config{
			EnableDataCache: true,
			MaxConcurrent:   nodeConcurrency,
		},
		MulticastPeriod: opts.multicastPeriod(),
		PruneMulticast:  true,
	})
	if err != nil {
		return cell, err
	}
	if err := c.Start(ctx); err != nil {
		return cell, err
	}
	defer c.Stop()

	client := c.Client()
	rec := stats.NewRecorder()
	clients := clientsPerNode * nodes
	rngs := make([]*rand.Rand, clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(opts.Seed + int64(i)))
	}
	count, elapsed, err := runForDuration(clients, window, func(cl int) error {
		key := workload.KeyName(rngs[cl].Intn(keys))
		start := time.Now()
		// First-key-hinted start: shard-affinity routing in sharded
		// mode, plain round-robin otherwise.
		txid, err := client.StartTransactionHint(ctx, key)
		if err != nil {
			return err
		}
		if err := client.Put(ctx, txid, key, payload); err != nil {
			return err
		}
		if _, err := client.CommitTransaction(ctx, txid); err != nil {
			return err
		}
		rec.Record(time.Since(start))
		return nil
	})
	if err != nil {
		return cell, err
	}
	c.FlushMulticast()

	cell.Throughput = opts.rescaleRate(float64(count) / elapsed.Seconds())
	sum := rec.Summarize()
	sum.Median = opts.rescale(sum.Median)
	sum.P95 = opts.rescale(sum.P95)
	sum.P99 = opts.rescale(sum.P99)
	sum.Mean = opts.rescale(sum.Mean)
	sum.Min = opts.rescale(sum.Min)
	sum.Max = opts.rescale(sum.Max)
	cell.Latency = sum
	cell.Committed = c.TotalCommitted()
	cell.MeanIndex = c.MeanMetadataSize()
	cell.Deliveries = c.Bus().Metrics().Snapshot().Deliveries
	return cell, nil
}

// ShardedCells compares the paper's symmetric broadcast exchange (§4.1)
// against the shard-scoped exchange of internal/shard at 2/4/8/16 nodes,
// under a uniform single-write workload with shard-affinity routing. It is the
// scaling experiment the paper defers to future work (§8): per-node
// commit-index size and multicast fan-out should track a node's share of
// the keyspace in sharded mode, versus global write volume in broadcast
// mode.
//
// Expected shape: broadcast mode's mean per-node commit-index size equals
// total committed transactions regardless of node count, while sharded
// mode's shrinks roughly as 1/N (at 8 nodes the acceptance bar is <=
// 0.5x); record x peer deliveries drop by a similar factor; throughput and
// latency stay comparable (the exchange is off the critical path).
//
// The bench harness serializes the raw cells to BENCH_sharded.json.
func ShardedCells(opts Options) ([]ShardedCell, error) {
	opts = opts.withDefaults()
	ctx := context.Background()
	payload := workload.Payload(opts.Seed, opts.Payload)
	const keys = 4096
	window := 800 * time.Millisecond
	nodeCounts := []int{2, 4, 8, 16}
	if opts.Quick {
		window = 200 * time.Millisecond
		nodeCounts = []int{2, 4, 8}
	}
	var cells []ShardedCell
	for _, sharded := range []bool{false, true} {
		for _, nodes := range nodeCounts {
			cell, err := runShardedCell(ctx, opts, nodes, sharded, 10, window, keys, payload)
			if err != nil {
				return cells, err
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}
