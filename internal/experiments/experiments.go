// Package experiments regenerates every table and figure of the paper's
// evaluation (§6). Each Fig*/Table* function runs the corresponding
// experiment against the simulated substrates and returns printable
// results; cmd/aft-bench is the command-line front end.
//
// Absolute numbers will not match the paper — the substrates are latency
// simulators, not AWS — but each experiment preserves the paper's shape:
// who wins, by what rough factor, and where behaviour changes. The
// harness supports a time scale (Options.Scale) so full sweeps finish in
// minutes; reported latencies and throughputs are rescaled to
// paper-equivalent units.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"aft/internal/core"
	"aft/internal/faas"
	"aft/internal/latency"
	"aft/internal/stats"
	"aft/internal/storage"
	"aft/internal/storage/kvengine"
	"aft/internal/storage/walengine"
	"aft/internal/workload"
)

// Options tune an experiment run.
type Options struct {
	// Scale multiplies simulated latencies: 1.0 = paper speed, 0.1 = 10x
	// faster (default), 0 = no latency at all (smoke tests). Reported
	// latencies are divided by Scale so output stays in paper-equivalent
	// units.
	Scale float64
	// Quick shrinks workload sizes ~10x for CI-speed runs.
	Quick bool
	// Seed drives every random source in the experiment.
	Seed int64
	// Payload is the value size in bytes (paper: 4096).
	Payload int
	// Backend, when non-empty, overrides the storage backend every
	// experiment builds ("dynamodb" | "s3" | "redis" | "wal") — the
	// aft-bench -store flag. Experiments that sweep backends themselves
	// (fig3) collapse onto the override — their row labels keep the
	// sweep's names (BENCH json records the override in "store"), and
	// rows needing a capability the override lacks (transaction mode)
	// are skipped. The default keeps each experiment's own choice.
	Backend string

	// ChaosErrorRate, ChaosPartialRate, and ChaosSpikeRate override the
	// chaos experiment's per-operation fault probabilities; 0 selects the
	// defaults (see campaign.go).
	ChaosErrorRate, ChaosPartialRate, ChaosSpikeRate float64
	// ChaosKills overrides how many node kills each chaos campaign
	// schedules; 0 selects the default.
	ChaosKills int
	// ChaosRequests overrides the chaos campaign length; 0 selects the
	// default (Quick-aware).
	ChaosRequests int
}

// withDefaults normalizes options.
func (o Options) withDefaults() Options {
	if o.Payload == 0 {
		o.Payload = 4096
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

func (o Options) sleeper() *latency.Sleeper {
	if o.Scale <= 0 {
		return latency.NoSleep
	}
	return &latency.Sleeper{Scale: o.Scale}
}

// rescale converts a measured duration back to paper-equivalent time.
func (o Options) rescale(d time.Duration) time.Duration {
	if o.Scale <= 0 {
		return d
	}
	return time.Duration(float64(d) / o.Scale)
}

// rescaleRate converts a measured rate (per second) to paper-equivalent.
func (o Options) rescaleRate(r float64) float64 {
	if o.Scale <= 0 {
		return r
	}
	return r * o.Scale
}

// scaled shrinks a count in quick mode.
func (o Options) scaled(n int) int {
	if o.Quick {
		n /= 10
		if n < 5 {
			n = 5
		}
	}
	return n
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the table to w.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// ms renders a duration as fractional milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.1f", stats.Millis(d)) }

// storeKind names a simulated backend.
type storeKind string

// Simulated backends used across experiments, plus the disk-backed WAL.
const (
	kindDynamo storeKind = "dynamodb"
	kindS3     storeKind = "s3"
	kindRedis  storeKind = "redis"
	kindWAL    storeKind = "wal"
)

// newStore builds a latency-injected simulated backend, or the disk WAL
// engine when selected. Options.Backend overrides the experiment's choice.
func (o Options) newStore(kind storeKind) storage.Store {
	if o.Backend != "" {
		kind = storeKind(o.Backend)
	}
	switch kind {
	case kindWAL:
		// The WAL engine's latency is the real disk's. Every log directory
		// lives under one per-process temp root so CleanupTempStores can
		// reclaim them all when the bench exits.
		dir, err := newWALDir()
		if err != nil {
			panic(fmt.Sprintf("experiments: wal store: %v", err))
		}
		s, err := walengine.Open(dir, walengine.Options{})
		if err != nil {
			panic(fmt.Sprintf("experiments: wal store: %v", err))
		}
		return s
	case kindS3:
		var m *latency.Model
		if o.Scale > 0 {
			m = latency.NewModel(latency.S3Profile(), o.Seed)
		}
		return kvengine.NewS3(kvengine.Options{Latency: m, Sleeper: o.sleeper()})
	case kindRedis:
		var m *latency.Model
		if o.Scale > 0 {
			m = latency.NewModel(latency.RedisProfile(), o.Seed)
		}
		return kvengine.NewRedis(0, kvengine.Options{Latency: m, Sleeper: o.sleeper()})
	default:
		var m *latency.Model
		if o.Scale > 0 {
			m = latency.NewModel(latency.DynamoDBProfile(), o.Seed)
		}
		return kvengine.NewDynamoDB(kvengine.Options{Latency: m, Sleeper: o.sleeper()})
	}
}

// walTmp tracks the per-process root under which every Backend-override
// WAL store lays its log directory.
var walTmp struct {
	mu   sync.Mutex
	root string
	n    int
}

// newWALDir allocates a fresh log directory under the process's WAL root.
func newWALDir() (string, error) {
	walTmp.mu.Lock()
	defer walTmp.mu.Unlock()
	if walTmp.root == "" {
		root, err := os.MkdirTemp("", "aft-bench-wal-*")
		if err != nil {
			return "", err
		}
		walTmp.root = root
	}
	walTmp.n++
	dir := filepath.Join(walTmp.root, fmt.Sprintf("store-%03d", walTmp.n))
	if err := os.Mkdir(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// CleanupTempStores removes every WAL log directory created for the
// Backend override ("-store wal"); aft-bench calls it before exiting. The
// stores' open segment handles die with the process.
func CleanupTempStores() {
	walTmp.mu.Lock()
	defer walTmp.mu.Unlock()
	if walTmp.root != "" {
		os.RemoveAll(walTmp.root)
		walTmp.root, walTmp.n = "", 0
	}
}

// lambdaModel returns the FaaS invocation-overhead model.
func (o Options) lambdaModel() *latency.Model {
	if o.Scale <= 0 {
		return nil
	}
	return latency.NewModel(latency.LambdaProfile(), o.Seed+1)
}

// newNode builds an AFT node over store.
func newNode(id string, store storage.Store, cache bool) (*core.Node, error) {
	return core.NewNode(core.Config{
		NodeID:           id,
		Store:            store,
		EnableDataCache:  cache,
		DataCacheEntries: 16384,
	})
}

// newPlatform builds a FaaS platform over client.
func (o Options) newPlatform(client faas.TxnClient) (*faas.Platform, error) {
	return faas.New(faas.Config{
		Client:   client,
		Overhead: o.lambdaModel(),
		Sleeper:  o.sleeper(),
		Seed:     o.Seed,
	})
}

// seedAFT populates nKeys committed key versions through a loader node so
// experiment reads always find data. Values carry "seed" anomaly metadata
// (empty cowritten set) and the seed writer is registered in reg when
// non-nil.
func seedAFT(ctx context.Context, node *core.Node, reg *workload.Registry, nKeys int, payload []byte) error {
	seedMeta := workload.Meta{TS: 1, UUID: "seed"}
	value, err := workload.Wrap(seedMeta, payload)
	if err != nil {
		return err
	}
	if reg != nil {
		reg.Register("seed", seedMeta.OrderID())
	}
	const perTxn = 20
	for start := 0; start < nKeys; start += perTxn {
		txid, err := node.StartTransaction(ctx)
		if err != nil {
			return err
		}
		for i := start; i < start+perTxn && i < nKeys; i++ {
			if err := node.Put(ctx, txid, workload.KeyName(i), value); err != nil {
				return err
			}
		}
		if _, err := node.CommitTransaction(ctx, txid); err != nil {
			return err
		}
	}
	return nil
}

// seedPlain writes nKeys wrapped values directly to storage (for the plain
// and transaction-mode baselines).
func seedPlain(ctx context.Context, store storage.Store, reg *workload.Registry, nKeys int, payload []byte) error {
	for i := 0; i < nKeys; i++ {
		meta := workload.Meta{TS: 1, UUID: "seed", Cowritten: nil}
		v, err := workload.Wrap(meta, payload)
		if err != nil {
			return err
		}
		if err := store.Put(ctx, workload.KeyName(i), v); err != nil {
			return err
		}
	}
	if reg != nil {
		reg.Register("seed", workload.Meta{TS: 1, UUID: "seed"}.OrderID())
	}
	return nil
}

// runClients runs fn concurrently on `clients` goroutines, `perClient`
// iterations each, recording per-iteration latency. Iteration errors abort
// the run.
func runClients(clients, perClient int, fn func(client, iter int) error) (*stats.Recorder, error) {
	rec := stats.NewRecorder()
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				start := time.Now()
				if err := fn(c, i); err != nil {
					errs <- fmt.Errorf("client %d iter %d: %w", c, i, err)
					return
				}
				rec.Record(time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return rec, err
	}
	return rec, nil
}

// runForDuration runs fn on `clients` goroutines until d elapses and
// returns the completed-iteration count and elapsed time.
func runForDuration(clients int, d time.Duration, fn func(client int) error) (int64, time.Duration, error) {
	var count stats.Counter
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(c); err != nil {
					errs <- err
					return
				}
				count.Inc(1)
			}
		}(c)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	if err := <-errs; err != nil {
		return count.Value(), elapsed, err
	}
	return count.Value(), elapsed, nil
}
