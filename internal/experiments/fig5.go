package experiments

import (
	"context"
	"fmt"
	"time"

	"aft/internal/baselines"
	"aft/internal/stats"
	"aft/internal/workload"
)

// Fig5 reproduces Figure 5 (§6.3): latency of a 10-IO, 2-function
// transaction as the read fraction sweeps from 0% to 100%, for AFT over
// DynamoDB and AFT over Redis.
//
// Expected shapes: AFT-D varies mildly — all writes collapse into one
// batch call plus a commit record, while each read is its own call, with a
// small dip at 100% reads (no batch write at all); AFT-R is nearly flat —
// Redis IO is small against function invocation. Each read is its own
// Redis call, while the writes, which Redis cannot batch, go out together
// at commit: one round trip for the data, one for the record. The paper's
// AFT-R wrote one key after another (11 calls in sequence at any mix).
func Fig5(opts Options) (Table, error) {
	opts = opts.withDefaults()
	ctx := context.Background()
	payload := workload.Payload(opts.Seed, opts.Payload)
	const clients = 10
	perClient := opts.scaled(300)
	const keys = 1000
	const zipf = 1.0

	table := Table{
		Title:  "Figure 5: read-write ratio, 10 IOs across 2 functions (ms, paper-equivalent)",
		Header: []string{"store", "reads", "median", "p99"},
	}

	for _, kind := range []storeKind{kindDynamo, kindRedis} {
		for _, frac := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
			store := opts.newStore(kind)
			node, err := newNode("fig5", store, false)
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
				gens[c] = workload.NewRatioGenerator(opts.Seed+int64(c),
					workload.NewZipf(opts.Seed+int64(100+c), keys, zipf), 2, 10, frac)
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
				return table, fmt.Errorf("fig5 %s %.0f%%: %w", kind, frac*100, err)
			}
			s := rec.Summarize()
			table.Rows = append(table.Rows, []string{
				string(kind), fmt.Sprintf("%.0f%%", frac*100), ms(s.Median), ms(s.P99),
			})
		}
	}
	return table, nil
}
