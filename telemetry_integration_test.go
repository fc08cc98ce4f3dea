package bench

// Full-stack exposition test: one registry collects a live multi-node
// cluster (nodes, multicast, fault manager, load balancer), its
// chaos-wrapped storage, and a checker verdict, and the /metrics text
// must carry a family from every layer. This is the in-process twin of
// scripts/observability_smoke.sh, which asserts the same families over
// HTTP against a real aft-server.

import (
	"context"
	"strings"
	"testing"
	"time"

	"aft/aft"
	"aft/internal/chaos"
	"aft/internal/checker"
	"aft/internal/cluster"
	"aft/internal/storage/kvengine"
	"aft/internal/telemetry"
)

func TestTelemetryFullStackExposition(t *testing.T) {
	ctx := context.Background()
	st := chaos.Wrap(kvengine.NewDynamoDB(kvengine.Options{}), chaos.Config{Seed: 11})
	c, err := cluster.New(cluster.Config{
		Nodes:           2,
		Store:           st,
		MulticastPeriod: 2 * time.Millisecond,
		PruneMulticast:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	reg := &telemetry.Registry{}
	c.RegisterTelemetry(reg)
	st.RegisterTelemetry(reg)
	check := checker.New()
	checker.RegisterVerdict(reg, func() checker.Verdict { return check.Verdict(nil) })

	for i := 0; i < 8; i++ {
		err := aft.RunTransaction(ctx, c.Client(), func(txn *aft.Txn) error {
			if err := txn.Put("exposition-key", []byte("v")); err != nil {
				return err
			}
			_, err := txn.Get("exposition-key")
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	reg.Expose(&b)
	body := b.String()
	for _, fam := range []string{
		// one family per layer: node, latency histograms, storage,
		// multicast, fault manager, lb, chaos, checker
		"aft_node_txns_committed_total",
		"aft_commit_latency_seconds_bucket",
		"aft_read_latency_seconds_count",
		"aft_storage_puts_total",
		"aft_multicast_deliveries_total",
		"aft_faultmgr_known_commits",
		"aft_lb_txns_started_total",
		"aft_chaos_ops_total",
		"aft_checker_anomalies",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}
	// Both nodes must label their own series.
	for _, node := range []string{`node="aft-1"`, `node="aft-2"`} {
		if !strings.Contains(body, node) {
			t.Errorf("exposition missing per-node label %s", node)
		}
	}
}
