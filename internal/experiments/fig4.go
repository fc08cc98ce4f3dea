package experiments

import (
	"context"
	"fmt"
	"time"

	"aft/internal/baselines"
	"aft/internal/stats"
	"aft/internal/workload"
)

// Fig4 reproduces Figure 4 (§6.2): end-to-end latency of the canonical
// 2-function transaction under three Zipfian skews (1.0, 1.5, 2.0) for
// five configurations — DynamoDB transaction mode, AFT over DynamoDB with
// and without the read data cache, and AFT over Redis with and without the
// cache. The paper uses a 100,000-key space; the simulated run uses a
// configurable space (default 20,000) to bound memory.
//
// Expected shapes: caching helps AFT-D more as skew rises (hot versions
// stay cached); AFT-R barely changes (Redis IO is already negligible
// against function invocation); DynamoDB transactions degrade sharply at
// z=2.0 from conflict-abort retries.
func Fig4(opts Options) (Table, error) {
	opts = opts.withDefaults()
	ctx := context.Background()
	payload := workload.Payload(opts.Seed, opts.Payload)
	const clients = 10
	perClient := opts.scaled(300)
	keys := 20000
	if opts.Quick {
		keys = 2000
	}

	table := Table{
		Title:  "Figure 4: read caching x data skew, 2-function transactions (ms, paper-equivalent)",
		Header: []string{"zipf", "config", "median", "p99"},
		Notes:  []string{fmt.Sprintf("key space %d (paper: 100,000); skews 1.0/1.5/2.0", keys)},
	}

	type cfg struct {
		name  string
		store storeKind
		arch  string
		cache bool
	}
	configs := []cfg{
		{"DynamoDB Txns", kindDynamo, "txn", false},
		{"AFT-D No Caching", kindDynamo, "aft", false},
		{"AFT-D Caching", kindDynamo, "aft", true},
		{"AFT-R No Caching", kindRedis, "aft", false},
		{"AFT-R Caching", kindRedis, "aft", true},
	}

	for _, zipf := range []float64{1.0, 1.5, 2.0} {
		for _, c := range configs {
			rec, err := runFig4Config(ctx, opts, c.store, c.arch, c.cache, payload, clients, perClient, keys, zipf)
			if err != nil {
				return table, fmt.Errorf("fig4 %s z=%.1f: %w", c.name, zipf, err)
			}
			s := rec.Summarize()
			table.Rows = append(table.Rows, []string{
				fmt.Sprintf("%.1f", zipf), c.name, ms(s.Median), ms(s.P99),
			})
		}
	}
	return table, nil
}

func runFig4Config(ctx context.Context, opts Options, kind storeKind, arch string, cache bool,
	payload []byte, clients, perClient, keys int, zipf float64) (*stats.Recorder, error) {

	store := opts.newStore(kind)
	reg := workload.NewRegistry()
	var exec baselines.Executor
	switch arch {
	case "txn":
		if err := seedPlain(ctx, store, reg, keys, payload); err != nil {
			return nil, err
		}
		var err error
		exec, err = baselines.NewDynamoTxn(baselines.DynamoTxnConfig{
			Store: store, Payload: payload, Registry: reg,
			Overhead: opts.lambdaModel(), Sleeper: opts.sleeper(),
		})
		if err != nil {
			return nil, err
		}
	default:
		node, err := newNode("fig4", store, cache)
		if err != nil {
			return nil, err
		}
		if err := seedAFT(ctx, node, reg, keys, payload); err != nil {
			return nil, err
		}
		platform, err := opts.newPlatform(node)
		if err != nil {
			return nil, err
		}
		exec = baselines.NewAFT(baselines.AFTConfig{Platform: platform, Payload: payload, Registry: reg})
	}

	gens := make([]*workload.Generator, clients)
	for c := range gens {
		gens[c] = workload.NewGenerator(opts.Seed+int64(c), workload.NewZipf(opts.Seed+int64(100+c), keys, zipf), 2, 1, 2)
	}
	rec := stats.NewRecorder()
	_, err := runClients(clients, perClient, func(client, iter int) error {
		start := time.Now()
		if _, err := exec.Execute(ctx, gens[client].Next()); err != nil {
			return err
		}
		rec.Record(opts.rescale(time.Since(start)))
		return nil
	})
	return rec, err
}
