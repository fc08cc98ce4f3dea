package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage/kvengine"
)

// TestBootstrapTruncationServesOnDemand: BootstrapLimit still bounds
// warm-up cost, but the dropped records are served on demand instead of
// silently missing, and the truncation is counted.
func TestBootstrapTruncationServesOnDemand(t *testing.T) {
	ctx := context.Background()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	clock := idgen.NewVirtualClock(0, 1)

	n1, err := NewNode(Config{NodeID: "n1", Store: store, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		commitTxn(t, n1, map[string]string{fmt.Sprintf("k%d", i): fmt.Sprintf("v%d", i)})
	}

	n2, err := NewNode(Config{NodeID: "n2", Store: store, Clock: clock,
		BootstrapLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	m := n2.Metrics().Snapshot()
	if m.BootstrapTruncated != 3 {
		t.Fatalf("BootstrapTruncated = %d, want 3", m.BootstrapTruncated)
	}
	if got := n2.MetadataSize(); got != 2 {
		t.Fatalf("MetadataSize = %d, want the newest 2", got)
	}
	// The oldest key's record was truncated from warm-up; the read must
	// recover it rather than miss.
	txid, err := n2.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v, err := n2.Get(ctx, txid, "k0")
	if err != nil || string(v) != "v0" {
		t.Fatalf("Get(k0) = %q, %v; truncated record must be served on demand", v, err)
	}
}

// TestBudgetSpillAndRefetch: EnforceBudget brings metadata memory under
// the configured budget by spilling cold records, and a later read of a
// spilled key recovers its record (and correct value) from storage.
func TestBudgetSpillAndRefetch(t *testing.T) {
	ctx := context.Background()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	clock := idgen.NewVirtualClock(0, 1)

	// Build history on an unbudgeted writer so nothing sheds during setup.
	n1, err := NewNode(Config{NodeID: "w", Store: store, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		commitTxn(t, n1, map[string]string{fmt.Sprintf("k%03d", i): fmt.Sprintf("v%03d", i)})
	}

	const budget = 2048
	n2, err := NewNode(Config{NodeID: "b", Store: store, Clock: clock,
		MetadataBudgetBytes: budget, EnableDataCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if n2.MetadataBytes() <= budget {
		t.Fatalf("setup too small: %d bytes resident, budget %d", n2.MetadataBytes(), budget)
	}

	spilled, err := n2.EnforceBudget(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if spilled == 0 {
		t.Fatal("EnforceBudget spilled nothing over a 3x-over-budget index")
	}
	if got := n2.MetadataBytes(); got > budget {
		t.Fatalf("MetadataBytes = %d after enforcement, want <= %d", got, budget)
	}
	if m := n2.Metrics().Snapshot(); m.SpilledRecords != int64(spilled) {
		t.Fatalf("SpilledRecords = %d, want %d", m.SpilledRecords, spilled)
	}

	// The oldest records spilled first; their keys must still read
	// correctly via the on-demand refetch path.
	txid, err := n2.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k000", "k001", "k039"} {
		v, err := n2.Get(ctx, txid, k)
		if err != nil || string(v) != "v"+k[1:] {
			t.Fatalf("Get(%s) = %q, %v after spill", k, v, err)
		}
	}
	if _, err := n2.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetShedsRetriably: past the hard ceiling StartTransaction sheds
// with ErrOverloaded (retriable), and once EnforceBudget has released
// memory the same caller admits normally.
func TestBudgetShedsRetriably(t *testing.T) {
	ctx := context.Background()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	clock := idgen.NewVirtualClock(0, 1)

	n1, err := NewNode(Config{NodeID: "w", Store: store, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		commitTxn(t, n1, map[string]string{fmt.Sprintf("k%03d", i): "v"})
	}

	const budget = 1500
	n2, err := NewNode(Config{NodeID: "b", Store: store, Clock: clock,
		MetadataBudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := n2.StartTransaction(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("StartTransaction over the hard ceiling = %v, want ErrOverloaded", err)
	}
	if m := n2.Metrics().Snapshot(); m.BudgetShed == 0 {
		t.Fatal("BudgetShed not counted")
	}

	// The retry path: enforcement releases memory, the retry admits.
	if _, err := n2.EnforceBudget(ctx); err != nil {
		t.Fatal(err)
	}
	txid, err := n2.StartTransaction(ctx)
	if err != nil {
		t.Fatalf("StartTransaction after enforcement = %v, want admission", err)
	}
	if err := n2.AbortTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
}

// TestSpillFloorBlocksStaleReinstall: after a spill evicts a key's newest
// resident version, a full-index install of an OLDER record of that key
// (the fault manager's scan recovery pushes exactly such records) must not
// become the key's apparent newest — the refetch floor forces the next
// read to verify against storage and serve the true newest version.
func TestSpillFloorBlocksStaleReinstall(t *testing.T) {
	ctx := context.Background()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	clock := idgen.NewVirtualClock(0, 1)

	w, err := NewNode(Config{NodeID: "w", Store: store, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	// x's two versions sit early in the history, with enough filler after
	// them that budget enforcement evicts past both.
	commitTxn(t, w, map[string]string{"x": "v-old"})
	for i := 0; i < 10; i++ {
		commitTxn(t, w, map[string]string{fmt.Sprintf("f%03d", i): "v"})
	}
	commitTxn(t, w, map[string]string{"x": "v-new"})
	for i := 10; i < 40; i++ {
		commitTxn(t, w, map[string]string{fmt.Sprintf("f%03d", i): "v"})
	}

	const budget = 1024
	b, err := NewNode(Config{NodeID: "b", Store: store, Clock: clock,
		MetadataBudgetBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EnforceBudget(ctx); err != nil {
		t.Fatal(err)
	}
	if !b.floorSet("x") {
		t.Fatal("spilling x's newest resident version left no refetch floor")
	}

	// The fault-manager scan-push shape: the OLD record arrives as a full
	// install. Without the floor it would be x's only (hence newest) index
	// entry and the next read would serve v-old.
	var oldRec *records.CommitRecord
	for _, rec := range w.KnownCommits() {
		if rec.Cowritten("x") && (oldRec == nil || rec.ID().Less(oldRec.ID())) {
			oldRec = rec
		}
	}
	if oldRec == nil {
		t.Fatal("writer lost x's records")
	}
	b.MergeRemoteCommits([]*records.CommitRecord{oldRec})
	if !b.floorSet("x") {
		t.Fatal("an older install cleared the refetch floor")
	}

	txid, err := b.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Get(ctx, txid, "x")
	if err != nil || string(v) != "v-new" {
		t.Fatalf("Get(x) = %q, %v; floored read must recover the newest version", v, err)
	}
	if _, err := b.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
	if b.floorSet("x") {
		t.Fatal("recovering x's newest version did not clear its floor")
	}
}

// TestFullInstallUpgradesPartialIndex: a record that entered the commit
// cache through a read fallback is indexed only under the verified key;
// when the record's full announcement later arrives (multicast, fault
// manager), installLocked must upgrade it to fully indexed rather than
// swallow it as a duplicate — otherwise its other keys would serve stale
// versions forever.
func TestFullInstallUpgradesPartialIndex(t *testing.T) {
	ctx := context.Background()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	clock := idgen.NewVirtualClock(0, 1)

	w, err := NewNode(Config{NodeID: "w", Store: store, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	commitTxn(t, w, map[string]string{"y": "v1"})

	b, err := NewNode(Config{NodeID: "b", Store: store, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	// rec2 commits after b's bootstrap, then reaches b only through a
	// partial-metadata fallback for its sibling key s.
	commitTxn(t, w, map[string]string{"s": "sv", "y": "v2"})
	var rec2 *records.CommitRecord
	for _, rec := range w.KnownCommits() {
		if rec.Cowritten("s") {
			rec2 = rec
		}
	}
	if rec2 == nil {
		t.Fatal("writer lost rec2")
	}
	ss := b.appendStripes(nil, rec2.WriteSet)
	lockStripes(ss)
	b.installRecoveredLocked(rec2, "s")
	unlockStripes(ss)

	// The window the upgrade closes: y's index still ends at v1.
	txid, err := b.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := b.Get(ctx, txid, "y"); err != nil || string(v) != "v1" {
		t.Fatalf("Get(y) before the announcement = %q, %v; want the indexed v1", v, err)
	}
	if _, err := b.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}

	// The full announcement of an already-cached record must index y.
	b.MergeRemoteCommits([]*records.CommitRecord{rec2})
	txid, err = b.StartTransaction(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Get(ctx, txid, "y")
	if err != nil || string(v) != "v2" {
		t.Fatalf("Get(y) after the announcement = %q, %v; the upgrade must make v2 selectable", v, err)
	}
	if _, err := b.CommitTransaction(ctx, txid); err != nil {
		t.Fatal(err)
	}
}
