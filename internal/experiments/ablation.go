package experiments

import (
	"context"
	"fmt"
	"time"

	"aft/internal/baselines"
	"aft/internal/core"
	"aft/internal/multicast"
	"aft/internal/storage"
	"aft/internal/workload"
)

// storeMetricsPuts reads a simulated store's put counter.
func storeMetricsPuts(s storage.Store) int64 {
	type metered interface{ Metrics() *storage.Metrics }
	if m, ok := s.(metered); ok {
		return m.Metrics().Puts.Load()
	}
	return 0
}

// Ablation exercises the design choices DESIGN.md calls out, beyond the
// paper's own figures:
//
//  1. supersedence pruning (§4.1) on/off: how much multicast metadata a
//     contended workload generates;
//  2. data-cache size sweep (§3.1/§6.2): cache hit rate and latency as the
//     cache shrinks;
//  3. write-buffer spilling (§3.3): commit behaviour of a large
//     transaction with and without proactive spilling;
//  4. §8's one object per transaction over S3: end-to-end latency and
//     storage writes of the canonical transaction, whose commit record
//     carries its values (an inline record) and is its one write.
func Ablation(opts Options) (Table, error) {
	opts = opts.withDefaults()
	ctx := context.Background()
	payload := workload.Payload(opts.Seed, opts.Payload)

	table := Table{
		Title:  "Ablation: pruning, cache size, spilling",
		Header: []string{"study", "config", "metric", "value"},
	}

	// --- 1. Supersedence pruning ---
	for _, prune := range []bool{true, false} {
		store := opts.newStore(kindDynamo)
		n1, err := newNode("abl-1", store, false)
		if err != nil {
			return table, err
		}
		n2, err := newNode("abl-2", store, false)
		if err != nil {
			return table, err
		}
		bus := multicast.NewBus()
		bus.Register(n1)
		bus.Register(n2)
		// A contended workload: every transaction rewrites the same two
		// hot keys, so most commits are superseded by flush time.
		txns := opts.scaled(500)
		for i := 0; i < txns; i++ {
			txid, err := n1.StartTransaction(ctx)
			if err != nil {
				return table, err
			}
			n1.Put(ctx, txid, "hot-a", payload)
			n1.Put(ctx, txid, "hot-b", payload)
			if _, err := n1.CommitTransaction(ctx, txid); err != nil {
				return table, err
			}
			if i%50 == 49 {
				bus.FlushPeer(n1, prune)
			}
		}
		bus.FlushPeer(n1, prune)
		m := bus.Metrics().Snapshot()
		name := map[bool]string{true: "pruning on", false: "pruning off"}[prune]
		table.Rows = append(table.Rows,
			[]string{"multicast", name, "records broadcast", fmt.Sprint(m.Broadcast)},
			[]string{"multicast", name, "records pruned", fmt.Sprint(m.Pruned)},
		)
	}

	// --- 2. Data cache size sweep ---
	for _, entries := range []int{0, 64, 1024, 16384} {
		store := opts.newStore(kindDynamo)
		node, err := core.NewNode(core.Config{
			NodeID:           "abl-cache",
			Store:            store,
			EnableDataCache:  entries > 0,
			DataCacheEntries: entries,
		})
		if err != nil {
			return table, err
		}
		keys := 2000
		if opts.Quick {
			keys = 500
		}
		reg := workload.NewRegistry()
		if err := seedAFT(ctx, node, reg, keys, payload); err != nil {
			return table, err
		}
		platform, err := opts.newPlatform(node)
		if err != nil {
			return table, err
		}
		exec := baselines.NewAFT(baselines.AFTConfig{Platform: platform, Payload: payload, Registry: reg})
		gen := workload.NewGenerator(opts.Seed, workload.NewZipf(opts.Seed, keys, 1.5), 2, 1, 2)
		iters := opts.scaled(500)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := exec.Execute(ctx, gen.Next()); err != nil {
				return table, err
			}
		}
		elapsed := opts.rescale(time.Since(start))
		nm := node.Metrics().Snapshot()
		hitRate := 0.0
		if nm.Reads > 0 {
			hitRate = float64(nm.CacheHits) / float64(nm.Reads)
		}
		name := fmt.Sprintf("%d entries", entries)
		if entries == 0 {
			name = "cache off"
		}
		table.Rows = append(table.Rows,
			[]string{"data cache", name, "hit rate", fmt.Sprintf("%.0f%%", 100*hitRate)},
			[]string{"data cache", name, "mean txn (ms)", fmt.Sprintf("%.2f", float64(elapsed.Milliseconds())/float64(iters))},
		)
	}

	// --- 4. One object per transaction over S3, §8 ---
	{
		store := opts.newStore(kindS3)
		node, err := newNode("abl-pack", store, false)
		if err != nil {
			return table, err
		}
		keys := 500
		reg := workload.NewRegistry()
		if err := seedAFT(ctx, node, reg, keys, payload); err != nil {
			return table, err
		}
		platform, err := opts.newPlatform(node)
		if err != nil {
			return table, err
		}
		exec := baselines.NewAFT(baselines.AFTConfig{Platform: platform, Payload: payload, Registry: reg})
		gen := workload.NewGenerator(opts.Seed, workload.NewZipf(opts.Seed, keys, 1.0), 2, 1, 2)
		iters := opts.scaled(200)
		puts0 := storeMetricsPuts(store)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := exec.Execute(ctx, gen.Next()); err != nil {
				return table, err
			}
		}
		elapsed := opts.rescale(time.Since(start))
		table.Rows = append(table.Rows,
			[]string{"s3 layout", "inline record", "mean txn (ms)", fmt.Sprintf("%.1f", float64(elapsed.Milliseconds())/float64(iters))},
			[]string{"s3 layout", "inline record", "storage puts/txn", fmt.Sprintf("%.1f", float64(storeMetricsPuts(store)-puts0)/float64(iters))},
		)
	}

	// --- 3. Write-buffer spilling ---
	for _, threshold := range []int{0, 64 << 10} {
		store := opts.newStore(kindDynamo)
		node, err := core.NewNode(core.Config{
			NodeID:         "abl-spill",
			Store:          store,
			SpillThreshold: threshold,
		})
		if err != nil {
			return table, err
		}
		writes := 100
		txid, err := node.StartTransaction(ctx)
		if err != nil {
			return table, err
		}
		for i := 0; i < writes; i++ {
			if err := node.Put(ctx, txid, workload.KeyName(i), payload); err != nil {
				return table, err
			}
		}
		start := time.Now()
		if _, err := node.CommitTransaction(ctx, txid); err != nil {
			return table, err
		}
		commitLatency := opts.rescale(time.Since(start))
		name := "spill off"
		if threshold > 0 {
			name = "spill at 64KiB"
		}
		table.Rows = append(table.Rows,
			[]string{"spilling", name, "spill events", fmt.Sprint(node.Metrics().Snapshot().Spills)},
			[]string{"spilling", name, "commit latency (ms)", ms(commitLatency)},
		)
	}
	return table, nil
}
