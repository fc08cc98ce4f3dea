package experiments

import (
	"context"
	"fmt"
	"time"

	"aft/internal/baselines"
	"aft/internal/stats"
	"aft/internal/workload"
)

// Fig6 reproduces Figure 6 (§6.4): latency versus transaction length, from
// 1 function to 10 functions (each function does 1 write + 2 reads), for
// AFT over DynamoDB and Redis.
//
// Expected shapes: roughly linear growth with length for both engines;
// DynamoDB grows sub-linearly in total IOs because all writes batch into
// one call at commit (the paper reports 10-function transactions only
// ~6.2x slower than 1-function). On Redis each read is its own call and
// the writes go out together at commit; the paper's AFT wrote them one
// after another and reports ~8.9x.
func Fig6(opts Options) (Table, error) {
	opts = opts.withDefaults()
	ctx := context.Background()
	payload := workload.Payload(opts.Seed, opts.Payload)
	const clients = 10
	perClient := opts.scaled(200)
	const keys = 1000
	const zipf = 1.5

	table := Table{
		Title:  "Figure 6: transaction length, 1-10 functions x (1W+2R) (ms, paper-equivalent)",
		Header: []string{"store", "functions", "median", "p99"},
	}

	for _, kind := range []storeKind{kindDynamo, kindRedis} {
		for _, functions := range []int{1, 2, 4, 6, 8, 10} {
			store := opts.newStore(kind)
			node, err := newNode("fig6", store, false)
			if err != nil {
				return table, err
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

			gens := make([]*workload.Generator, clients)
			for c := range gens {
				gens[c] = workload.NewGenerator(opts.Seed+int64(c),
					workload.NewZipf(opts.Seed+int64(100+c), keys, zipf), functions, 1, 2)
			}
			rec := stats.NewRecorder()
			_, err = runClients(clients, perClient, func(client, iter int) error {
				start := time.Now()
				if _, err := exec.Execute(ctx, gens[client].Next()); err != nil {
					return err
				}
				rec.Record(opts.rescale(time.Since(start)))
				return nil
			})
			if err != nil {
				return table, fmt.Errorf("fig6 %s len=%d: %w", kind, functions, err)
			}
			s := rec.Summarize()
			table.Rows = append(table.Rows, []string{
				string(kind), fmt.Sprint(functions), ms(s.Median), ms(s.P99),
			})
		}
	}
	return table, nil
}
