package experiments

import (
	"context"
	"fmt"
	"time"

	"aft/internal/latency"
	"aft/internal/stats"
	"aft/internal/storage"
	"aft/internal/workload"
)

// Fig2 reproduces Figure 2 (§6.1.1): median and p99 latency of performing
// 1, 5, and 10 writes from a single client, in four configurations — AFT
// with sequential client calls, AFT with one batched client call, and
// DynamoDB directly with sequential and batched writes.
//
// The client runs in a VM (no FaaS overhead), but AFT is a separate
// service, so every client→AFT call pays an RPC cost; DynamoDB calls pay
// their own modeled latency. The paper's two findings must reproduce:
// AFT's automatic commit-time batching beats sequential DynamoDB writes,
// and AFT-batch trails DynamoDB-batch by a small fixed overhead (the
// commit record plus one RPC).
func Fig2(opts Options) (Table, error) {
	opts = opts.withDefaults()
	ctx := context.Background()
	payload := workload.Payload(opts.Seed, opts.Payload)
	reps := opts.scaled(1000)

	// Client→AFT RPC cost: sub-millisecond same-AZ round trip.
	var rpcModel *latency.Model
	if opts.Scale > 0 {
		rpcModel = latency.NewModel(latency.Profile{
			latency.OpPut: {Median: 800 * time.Microsecond, Sigma: 0.3, TailProb: 0.01, TailFactor: 5},
		}, opts.Seed+7)
	}
	sleeper := opts.sleeper()
	rpc := func() {
		sleeper.Sleep(rpcModel.Sample(latency.OpPut, 1))
	}

	table := Table{
		Title:  "Figure 2: IO latency, single client, 1/5/10 writes (ms, paper-equivalent)",
		Header: []string{"writes", "config", "median", "p99"},
		Notes: []string{
			"AFT Sequential pays one RPC per write; AFT Batch ships all writes in one RPC;",
			"both commit with DynamoDB batch writes plus one commit record (§3.3).",
		},
	}

	for _, writes := range []int{1, 5, 10} {
		keys := make([]string, writes)
		for i := range keys {
			keys[i] = workload.KeyName(i)
		}

		type config struct {
			name string
			run  func() error
		}
		store := opts.newStore(kindDynamo)
		node, err := newNode("fig2", store, false)
		if err != nil {
			return table, err
		}
		configs := []config{
			{"AFT Sequential", func() error {
				txid, err := node.StartTransaction(ctx)
				if err != nil {
					return err
				}
				for _, k := range keys {
					rpc() // one client→AFT round trip per write
					if err := node.Put(ctx, txid, k, payload); err != nil {
						return err
					}
				}
				rpc() // commit round trip
				_, err = node.CommitTransaction(ctx, txid)
				return err
			}},
			{"AFT Batch", func() error {
				txid, err := node.StartTransaction(ctx)
				if err != nil {
					return err
				}
				rpc() // all writes in a single client→AFT request
				for _, k := range keys {
					if err := node.Put(ctx, txid, k, payload); err != nil {
						return err
					}
				}
				_, err = node.CommitTransaction(ctx, txid)
				return err
			}},
			{"DynamoDB Sequential", func() error {
				for _, k := range keys {
					if err := store.Put(ctx, k, payload); err != nil {
						return err
					}
				}
				return nil
			}},
			{"DynamoDB Batch", func() error {
				items := make(map[string][]byte, len(keys))
				for _, k := range keys {
					items[k] = payload
				}
				return batchAll(ctx, store, items)
			}},
		}
		for _, cfg := range configs {
			rec := stats.NewRecorder()
			for r := 0; r < reps; r++ {
				start := time.Now()
				if err := cfg.run(); err != nil {
					return table, fmt.Errorf("fig2 %s: %w", cfg.name, err)
				}
				rec.Record(opts.rescale(time.Since(start)))
			}
			s := rec.Summarize()
			table.Rows = append(table.Rows, []string{
				fmt.Sprint(writes), cfg.name, ms(s.Median), ms(s.P99),
			})
		}
	}
	return table, nil
}

// batchAll issues BatchPut in engine-limit chunks.
func batchAll(ctx context.Context, store storage.Store, items map[string][]byte) error {
	limit := store.Capabilities().MaxBatchSize
	if limit <= 0 {
		limit = len(items)
	}
	batch := make(map[string][]byte, limit)
	for k, v := range items {
		batch[k] = v
		if len(batch) >= limit {
			if err := store.BatchPut(ctx, batch); err != nil {
				return err
			}
			batch = make(map[string][]byte, limit)
		}
	}
	if len(batch) > 0 {
		return store.BatchPut(ctx, batch)
	}
	return nil
}
