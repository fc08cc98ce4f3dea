package idgen

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestNullOrdersFirst(t *testing.T) {
	real := ID{Timestamp: 1, UUID: "a"}
	if !Null.Less(real) {
		t.Fatalf("Null should order before %v", real)
	}
	if real.Less(Null) {
		t.Fatalf("%v should not order before Null", real)
	}
	if !Null.IsNull() {
		t.Fatal("Null.IsNull() = false")
	}
	if real.IsNull() {
		t.Fatalf("%v.IsNull() = true", real)
	}
}

func TestOrderByTimestampThenUUID(t *testing.T) {
	cases := []struct {
		a, b ID
		less bool
	}{
		{ID{1, "z"}, ID{2, "a"}, true},
		{ID{2, "a"}, ID{1, "z"}, false},
		{ID{1, "a"}, ID{1, "b"}, true},
		{ID{1, "b"}, ID{1, "a"}, false},
		{ID{1, "a"}, ID{1, "a"}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestCompareConsistentWithLess(t *testing.T) {
	f := func(t1, t2 int64, u1, u2 string) bool {
		a, b := ID{t1, u1}, ID{t2, u2}
		c := a.Compare(b)
		switch {
		case a.Less(b):
			return c == -1
		case b.Less(a):
			return c == 1
		default:
			return c == 0 && a.Equal(b)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	f := func(ts int64, uuid string) bool {
		if ts < 0 {
			ts = -ts
		}
		id := ID{Timestamp: ts, UUID: uuid}
		got, err := Parse(id.String())
		return err == nil && got.Equal(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "noseparator", "abc_x", "_x"} {
		if _, err := Parse(s); err == nil && s != "_x" {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
	// "12_" is valid: empty UUID.
	id, err := Parse("12_")
	if err != nil || id.Timestamp != 12 || id.UUID != "" {
		t.Errorf("Parse(\"12_\") = %v, %v", id, err)
	}
}

func TestStringOrderMatchesIDOrderForEqualWidthTimestamps(t *testing.T) {
	// Storage-key ordering relies on String() being order-preserving for
	// same-width timestamps (our clocks produce monotone values of stable
	// width within a run).
	ids := []ID{{100, "b"}, {100, "a"}, {101, "a"}, {999, "zz"}, {500, "m"}}
	sorted := append([]ID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	strs := make([]string, len(ids))
	for i, id := range ids {
		strs[i] = id.String()
	}
	sort.Strings(strs)
	for i := range sorted {
		if sorted[i].String() != strs[i] {
			t.Fatalf("order mismatch at %d: %s vs %s", i, sorted[i].String(), strs[i])
		}
	}
}

func TestWallClockMonotone(t *testing.T) {
	var w WallClock
	var mu sync.Mutex
	seen := make(map[int64]bool)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := int64(0)
			for j := 0; j < 1000; j++ {
				now := w.Now()
				if now <= prev {
					t.Errorf("clock went backwards: %d after %d", now, prev)
					return
				}
				prev = now
				mu.Lock()
				if seen[now] {
					t.Errorf("duplicate timestamp %d", now)
					mu.Unlock()
					return
				}
				seen[now] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestVirtualClock(t *testing.T) {
	v := NewVirtualClock(10, 5)
	if got := v.Now(); got != 15 {
		t.Fatalf("first Now = %d, want 15", got)
	}
	if got := v.Now(); got != 20 {
		t.Fatalf("second Now = %d, want 20", got)
	}
	v.Set(100)
	if got := v.Now(); got != 105 {
		t.Fatalf("after Set(100), Now = %d, want 105", got)
	}
	z := NewVirtualClock(0, 0) // step normalized to 1
	if got := z.Now(); got != 1 {
		t.Fatalf("zero-step clock Now = %d, want 1", got)
	}
}

func TestGeneratorUniqueness(t *testing.T) {
	g := NewGenerator(NewVirtualClock(0, 1), "n1")
	seen := make(map[string]bool)
	for i := 0; i < 5000; i++ {
		id := g.NewID()
		if seen[id.UUID] {
			t.Fatalf("duplicate UUID %q", id.UUID)
		}
		seen[id.UUID] = true
	}
}

func TestGeneratorDistinctNodesDistinctUUIDs(t *testing.T) {
	// Even with a broken (all-zero) entropy source, node name + sequence
	// keep UUIDs unique across generators.
	mk := func(node string) *Generator {
		g := NewGenerator(NewVirtualClock(0, 1), node)
		g.rnd = func(b []byte) error {
			for i := range b {
				b[i] = 0
			}
			return nil
		}
		return g
	}
	g1, g2 := mk("a"), mk("b")
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		for _, id := range []ID{g1.NewID(), g2.NewID()} {
			if seen[id.UUID] {
				t.Fatalf("duplicate UUID %q", id.UUID)
			}
			seen[id.UUID] = true
		}
	}
}

func TestGeneratorConcurrent(t *testing.T) {
	g := NewGenerator(nil, "node")
	var mu sync.Mutex
	seen := make(map[string]bool)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				id := g.NewID()
				mu.Lock()
				if seen[id.String()] {
					t.Errorf("duplicate ID %s", id)
				}
				seen[id.String()] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestTotalOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ids := make([]ID, 200)
	for i := range ids {
		ids[i] = ID{Timestamp: int64(rng.Intn(50)), UUID: string(rune('a' + rng.Intn(26)))}
	}
	// Antisymmetry and transitivity via sort consistency.
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	for i := 1; i < len(ids); i++ {
		if ids[i].Less(ids[i-1]) {
			t.Fatalf("sort inconsistency at %d", i)
		}
	}
}
