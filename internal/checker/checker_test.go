package checker

import (
	"context"
	"strings"
	"testing"

	"aft/internal/idgen"
	"aft/internal/records"
	"aft/internal/storage/kvengine"
	"aft/internal/workload"
)

func id(ts int64, uuid string) idgen.ID { return idgen.ID{Timestamp: ts, UUID: uuid} }

func meta(ts int64, uuid string, cowritten ...string) workload.Meta {
	return workload.Meta{TS: ts, UUID: uuid, Cowritten: cowritten}
}

// aftMeta is what AFT writers embed: no write-time timestamp (the order is
// the commit ID, registered post-commit).
func aftMeta(uuid string, cowritten ...string) workload.Meta {
	return workload.Meta{UUID: uuid, Cowritten: cowritten}
}

func TestVerdictCleanHistory(t *testing.T) {
	r := New()
	r.RecordCommit("t1", id(5, "t1"), []string{"a", "b"})
	r.RecordCommit("t2", id(9, "t2"), []string{"a", "b"})
	r.RecordTrace(workload.Trace{UUID: "r1", Reads: []workload.ReadObs{
		{Key: "a", Meta: aftMeta("t2", "a", "b")},
		{Key: "b", Meta: aftMeta("t2", "a", "b")},
		{Key: "a", Meta: aftMeta("t2", "a", "b")}, // repeatable
	}})
	v := r.Verdict(map[string]workload.Meta{
		"a": aftMeta("t2", "a", "b"),
		"b": aftMeta("t2", "a", "b"),
	})
	if !v.Clean() {
		t.Fatalf("clean history flagged: %s\n%v", v, v.Violations)
	}
	if v.Requests != 1 || v.Commits != 2 || v.Reads != 3 || v.FinalKeys != 2 {
		t.Fatalf("counts wrong: %+v", v)
	}
}

func TestVerdictFracturedRead(t *testing.T) {
	r := New()
	r.RecordCommit("t1", id(5, "t1"), []string{"a", "b"})
	r.RecordCommit("t2", id(9, "t2"), []string{"a", "b"})
	// Read a from t2 but its cowritten b from the older t1: not an Atomic
	// Readset.
	r.RecordTrace(workload.Trace{UUID: "r1", Reads: []workload.ReadObs{
		{Key: "a", Meta: aftMeta("t2", "a", "b")},
		{Key: "b", Meta: aftMeta("t1", "a", "b")},
	}})
	v := r.Verdict(nil)
	if v.FracturedReads != 1 {
		t.Fatalf("FracturedReads = %d, want 1: %s", v.FracturedReads, v)
	}
	if len(v.Violations) == 0 || !strings.Contains(v.Violations[0], "fractured") {
		t.Fatalf("violation not pinpointed: %v", v.Violations)
	}
	// The reverse order (old version read on a key NOT cowritten newer) is
	// fine: reading b@t1 first then a@t2 is still fractured — order of
	// observations does not matter for Definition 1.
	r2 := New()
	r2.RecordCommit("t1", id(5, "t1"), []string{"a", "b"})
	r2.RecordCommit("t2", id(9, "t2"), []string{"a", "b"})
	r2.RecordTrace(workload.Trace{UUID: "r1", Reads: []workload.ReadObs{
		{Key: "b", Meta: aftMeta("t1", "a", "b")},
		{Key: "a", Meta: aftMeta("t2", "a", "b")},
	}})
	if v := r2.Verdict(nil); v.FracturedReads != 1 {
		t.Fatalf("order-independent fracture missed: %s", v)
	}
}

func TestVerdictDirtyAbortedAndIndeterminateReads(t *testing.T) {
	r := New()
	r.RecordAbort("dead")
	r.RecordIndeterminate("maybe")
	r.RecordTrace(workload.Trace{UUID: "r1", Reads: []workload.ReadObs{
		{Key: "a", Meta: aftMeta("ghost")}, // never recorded at all
		{Key: "b", Meta: aftMeta("dead")},  // definitively aborted
		{Key: "c", Meta: aftMeta("maybe")}, // unknown outcome: NOT dirty
	}})
	v := r.Verdict(nil)
	if v.DirtyReads != 1 || v.AbortedReads != 1 {
		t.Fatalf("dirty=%d aborted=%d, want 1/1: %v", v.DirtyReads, v.AbortedReads, v.Violations)
	}
}

func TestVerdictRYWAndNonRepeatable(t *testing.T) {
	r := New()
	r.RecordCommit("t1", id(5, "t1"), []string{"a"})
	r.RecordCommit("t2", id(9, "t2"), []string{"a"})
	r.RecordTrace(workload.Trace{UUID: "r1", Reads: []workload.ReadObs{
		{Key: "a", Meta: aftMeta("t1")},
		{Key: "a", Meta: aftMeta("t2")},                      // changed under re-read
		{Key: "a", Meta: aftMeta("t2"), AfterOwnWrite: true}, // foreign value after own write
	}})
	v := r.Verdict(nil)
	if v.NonRepeatableReads != 1 || v.RYW != 1 {
		t.Fatalf("non-repeatable=%d ryw=%d, want 1/1: %v", v.NonRepeatableReads, v.RYW, v.Violations)
	}
	// Reading one's own write is never a violation.
	r2 := New()
	r2.RecordTrace(workload.Trace{UUID: "r1", Reads: []workload.ReadObs{
		{Key: "a", Meta: aftMeta("r1"), AfterOwnWrite: true},
	}})
	if v := r2.Verdict(nil); !v.Clean() {
		t.Fatalf("own-write read flagged: %s", v)
	}
}

func TestVerdictLostWrites(t *testing.T) {
	r := New()
	r.RecordCommit("t1", id(5, "t1"), []string{"a"})
	r.RecordCommit("t2", id(9, "t2"), []string{"a", "b"})

	// Final state observes the superseded writer on a, misses b entirely,
	// and reads c from a writer nobody committed.
	v := r.Verdict(map[string]workload.Meta{
		"a": aftMeta("t1"),
		"c": aftMeta("ghost"),
	})
	if v.LostWrites != 3 {
		t.Fatalf("LostWrites = %d, want 3: %v", v.LostWrites, v.Violations)
	}
}

func TestVerdictPlainWritersResolveByEmbeddedTimestamp(t *testing.T) {
	// Plain-storage writers embed their order at write time and are never
	// registered; the checker must still order them.
	r := New()
	r.RecordTrace(workload.Trace{UUID: "r1", Reads: []workload.ReadObs{
		{Key: "a", Meta: meta(9, "p2", "a", "b")},
		{Key: "b", Meta: meta(5, "p1", "a", "b")},
	}})
	v := r.Verdict(nil)
	if v.FracturedReads != 1 || v.DirtyReads != 0 {
		t.Fatalf("fractured=%d dirty=%d, want 1/0: %v", v.FracturedReads, v.DirtyReads, v.Violations)
	}
}

func TestResolveStorageSettlesIndeterminateOutcomes(t *testing.T) {
	ctx := context.Background()
	store := kvengine.NewDynamoDB(kvengine.Options{})
	// An unacked-but-durable commit: the client saw an error, the record
	// survived (§3.3 makes it the commit point).
	rec := records.NewCommitRecord(id(7, "maybe"), []string{"a"}, "node-1")
	payload, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ctx, records.CommitKey(rec.ID()), payload); err != nil {
		t.Fatal(err)
	}

	r := New()
	r.RecordIndeterminate("maybe")
	r.RecordTrace(workload.Trace{UUID: "r1", Reads: []workload.ReadObs{
		{Key: "a", Meta: aftMeta("maybe", "a")},
	}})
	n, err := r.ResolveStorage(ctx, store)
	if err != nil || n != 1 {
		t.Fatalf("ResolveStorage = %d, %v", n, err)
	}
	v := r.Verdict(map[string]workload.Meta{"a": aftMeta("maybe", "a")})
	if !v.Clean() {
		t.Fatalf("resolved history flagged: %s\n%v", v, v.Violations)
	}
	if v.Commits != 1 {
		t.Fatalf("Commits = %d, want 1", v.Commits)
	}
}

func TestRecorderDuplicateCommitSameUUIDNewestWins(t *testing.T) {
	// A partially-failed commit retried under the same transaction ID can
	// leave two durable records with one UUID (§3.1 idempotent retries
	// mint a fresh timestamp). The newest must define the version order
	// and both write sets must count for the final-state check.
	r := New()
	r.RecordCommit("t1", id(5, "t1"), []string{"a"})
	r.RecordCommit("t1", id(8, "t1"), []string{"a"})
	v := r.Verdict(map[string]workload.Meta{"a": aftMeta("t1")})
	if !v.Clean() {
		t.Fatalf("duplicate-record history flagged: %s\n%v", v, v.Violations)
	}
	if v.Commits != 2 {
		t.Fatalf("Commits = %d, want 2", v.Commits)
	}
}
