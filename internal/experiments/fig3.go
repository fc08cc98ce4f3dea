package experiments

import (
	"context"
	"fmt"
	"time"

	"aft/internal/baselines"
	"aft/internal/stats"
	"aft/internal/workload"
)

// Fig3Table2 reproduces Figure 3 and Table 2 (§6.1.2) in one run: the
// end-to-end latency of the canonical 2-function transaction (1 write + 2
// reads per function, 4 KB values, Zipf 1.0 over 1,000 keys, 10 parallel
// clients) across S3, DynamoDB, and Redis, under three architectures —
// Plain (direct storage access), Transactional (DynamoDB transaction
// mode), and AFT — plus the anomaly counts observed by each.
//
// Expected shapes: S3 dwarfs the other engines; AFT roughly matches Plain
// on DynamoDB (batching offsets the commit record) and adds a modest
// penalty on Redis (no batching available: the writes go out together as
// point calls); AFT reports zero anomalies
// while the plain engines fracture several percent of transactions and
// DynamoDB-serializable still shows fractured reads across functions.
func Fig3Table2(opts Options) (Table, Table, error) {
	opts = opts.withDefaults()
	ctx := context.Background()
	payload := workload.Payload(opts.Seed, opts.Payload)
	const clients = 10
	perClient := opts.scaled(1000)
	const keys = 1000
	const zipf = 1.0

	fig3 := Table{
		Title:  "Figure 3: end-to-end 2-function transaction latency (ms, paper-equivalent)",
		Header: []string{"store", "config", "median", "p99"},
	}
	table2 := Table{
		Title:  "Table 2: anomalies over the Figure 3 runs",
		Header: []string{"engine", "consistency", "RYW anomalies", "FR anomalies", "requests"},
	}

	type cfg struct {
		store   storeKind
		arch    string // "plain" | "aft" | "txn"
		consist string
	}
	configs := []cfg{
		{kindS3, "plain", "None"},
		{kindS3, "aft", "Read Atomic"},
		{kindDynamo, "txn", "Serializable"},
		{kindDynamo, "plain", "None"},
		{kindDynamo, "aft", "Read Atomic"},
		{kindRedis, "plain", "Shard Linearizable"},
		{kindRedis, "aft", "Read Atomic"},
	}

	for _, c := range configs {
		if c.arch == "txn" && opts.Backend != "" && opts.Backend != string(kindDynamo) {
			// The transaction-mode baseline needs storage.Transactor,
			// which only the DynamoDB sim implements; under a -store
			// override to another backend, skip the row instead of
			// failing the whole sweep.
			fig3.Notes = append(fig3.Notes,
				fmt.Sprintf("Transactional row skipped: -store %s has no transaction mode", opts.Backend))
			continue
		}
		rec, anomalies, err := runArch(ctx, opts, c.store, c.arch, payload, clients, perClient, keys, zipf)
		if err != nil {
			return fig3, table2, fmt.Errorf("fig3 %s/%s: %w", c.store, c.arch, err)
		}
		s := rec.Summarize()
		label := map[string]string{"plain": "Plain", "aft": "AFT", "txn": "Transactional"}[c.arch]
		fig3.Rows = append(fig3.Rows, []string{string(c.store), label, ms(s.Median), ms(s.P99)})

		engine := string(c.store)
		if c.arch == "aft" {
			if c.store != kindDynamo {
				continue // Table 2 reports one AFT row (over DynamoDB)
			}
			engine = "aft"
		}
		table2.Rows = append(table2.Rows, []string{
			engine, c.consist,
			fmt.Sprint(anomalies.RYW), fmt.Sprint(anomalies.FracturedReads),
			fmt.Sprint(anomalies.Requests),
		})
	}
	return fig3, table2, nil
}

// runArch executes the canonical workload under one (store, architecture)
// pair and returns latencies plus anomaly counts.
func runArch(ctx context.Context, opts Options, kind storeKind, arch string, payload []byte,
	clients, perClient, keys int, zipf float64) (*stats.Recorder, workload.Anomalies, error) {

	store := opts.newStore(kind)
	reg := workload.NewRegistry()
	var collector workload.TraceCollector

	var exec baselines.Executor
	switch arch {
	case "plain":
		if err := seedPlain(ctx, store, reg, keys, payload); err != nil {
			return nil, workload.Anomalies{}, err
		}
		exec = baselines.NewPlain(baselines.PlainConfig{
			Store: store, Payload: payload, Registry: reg,
			Overhead: opts.lambdaModel(), Sleeper: opts.sleeper(),
		})
	case "txn":
		if err := seedPlain(ctx, store, reg, keys, payload); err != nil {
			return nil, workload.Anomalies{}, err
		}
		var err error
		exec, err = baselines.NewDynamoTxn(baselines.DynamoTxnConfig{
			Store: store, Payload: payload, Registry: reg,
			Overhead: opts.lambdaModel(), Sleeper: opts.sleeper(),
		})
		if err != nil {
			return nil, workload.Anomalies{}, err
		}
	case "aft":
		// The data cache stays off here: Figure 3 measures the bare shim
		// and Figure 4 studies caching separately.
		node, err := newNode("fig3-"+string(kind), store, false)
		if err != nil {
			return nil, workload.Anomalies{}, err
		}
		if err := seedAFT(ctx, node, reg, keys, payload); err != nil {
			return nil, workload.Anomalies{}, err
		}
		platform, err := opts.newPlatform(node)
		if err != nil {
			return nil, workload.Anomalies{}, err
		}
		exec = baselines.NewAFT(baselines.AFTConfig{Platform: platform, Payload: payload, Registry: reg})
	default:
		return nil, workload.Anomalies{}, fmt.Errorf("unknown architecture %q", arch)
	}

	gens := make([]*workload.Generator, clients)
	for c := range gens {
		gens[c] = workload.NewGenerator(opts.Seed+int64(c), workload.NewZipf(opts.Seed+int64(100+c), keys, zipf), 2, 1, 2)
	}
	rawRec := stats.NewRecorder()
	_, err := runClients(clients, perClient, func(client, iter int) error {
		start := time.Now()
		tr, err := exec.Execute(ctx, gens[client].Next())
		if err != nil {
			return err
		}
		rawRec.Record(opts.rescale(time.Since(start)))
		collector.Add(tr)
		return nil
	})
	if err != nil {
		return nil, workload.Anomalies{}, err
	}
	return rawRec, workload.Check(collector.Traces(), reg), nil
}
