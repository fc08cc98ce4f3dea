package faultmgr

import (
	"context"
	"errors"
	"testing"

	"aft/internal/storage/kvengine"
)

// failingBatchGetStore fails its first N BatchGet calls — a transient
// storage fault in the middle of a fault-manager recovery scan.
type failingBatchGetStore struct {
	*kvengine.DynamoDB
	failures int
}

var errScanBoom = errors.New("scanfail: transient BatchGet failure")

func (s *failingBatchGetStore) BatchGet(ctx context.Context, keys []string) (map[string][]byte, error) {
	if s.failures > 0 {
		s.failures--
		return nil, errScanBoom
	}
	return s.DynamoDB.BatchGet(ctx, keys)
}

// TestScanStorageFailureDoesNotSwallowRecoveredCommits locks in the
// recovery-scan failure contract the chaos harness flushed out: a scan
// that dies on a transient storage error mid-recovery must leave the
// unfetched records "unknown", so the NEXT scan still re-announces them
// to the nodes. (The buggy shape — installing records into the manager's
// index as they are fetched, then erroring out before the re-announce —
// made those commits permanently invisible: known to the manager, hence
// never re-announced, yet delivered to no node; the checker reported them
// as lost writes.)
func TestScanStorageFailureDoesNotSwallowRecoveredCommits(t *testing.T) {
	ctx := context.Background()
	inner := kvengine.NewDynamoDB(kvengine.Options{})
	store := &failingBatchGetStore{DynamoDB: inner, failures: 1}

	// A node commits two transactions and dies before broadcasting: the
	// records are durable but the manager never ingested them.
	dead := newNode(t, inner, "dead")
	commit(t, dead, map[string]string{"a": "1"})
	commit(t, dead, map[string]string{"b": "2"})

	survivor := newNode(t, inner, "survivor")
	m := New(store, StaticMembership{survivor})

	// First scan hits the transient fault and must surface it.
	if err := m.ScanStorage(ctx); !errors.Is(err, errScanBoom) {
		t.Fatalf("first scan = %v, want the injected failure", err)
	}
	// The retry must still recover AND re-announce both records.
	if err := m.ScanStorage(ctx); err != nil {
		t.Fatalf("retry scan: %v", err)
	}
	if got := m.Metrics().Snapshot().Recovered; got != 2 {
		t.Fatalf("Recovered = %d, want 2", got)
	}
	if survivor.MetadataSize() != 2 {
		t.Fatalf("survivor caches %d records, want 2 (recovered commits swallowed)", survivor.MetadataSize())
	}
	// And the recovered data is readable through the survivor.
	txid, err := survivor.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "1", "b": "2"} {
		v, err := survivor.Get(ctx, txid, k)
		if err != nil || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
}
