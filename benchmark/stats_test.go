package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		sorted []int64
		p      float64
		want   int64
	}{
		{nil, 50, 0},
		{[]int64{7}, 50, 7},
		{[]int64{7}, 99, 7},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 100, 10},
		{ten, 1, 1},
		{[]int64{1, 2, 3}, 50, 2},
	} {
		if got := percentile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", tc.sorted, tc.p, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("median odd = %v, want 4", got)
	}
	if in[0] != 5 || in[1] != 1 || in[2] != 4 {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestMedianOfReps(t *testing.T) {
	reps := []map[string]float64{
		{"tps": 100, "p50": 9},
		{"tps": 300, "p50": 7},
		{"tps": 200, "p50": 8},
		{"tps": 50, "p50": 30}, // one bad repetition must not move either median far
		{"tps": 210, "p50": 8.5},
	}
	got := medianOfReps(reps)
	if got["tps"] != 200 || got["p50"] != 8.5 {
		t.Errorf("medianOfReps = %v, want tps 200, p50 8.5", got)
	}
	if len(medianOfReps(nil)) != 0 {
		t.Error("medianOfReps(nil) is not empty")
	}
}

func TestSpreadAndCV(t *testing.T) {
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if got := spread([]float64{0, 0}); got != 0 {
		t.Errorf("spread of zeros = %v, want 0", got)
	}
	if got := coefficientOfVariation([]float64{10, 10, 10}); got != 0 {
		t.Errorf("cv of equal values = %v, want 0", got)
	}
	if got := coefficientOfVariation([]float64{5, 15}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("cv = %v, want 0.5", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1, 0) = %v, want 0", got)
	}
}

func TestScriptsDependOnlyOnSeed(t *testing.T) {
	a := newScripts(42, 3, shapePaperMix, newZipfKeys(1000, 1.0))
	b := newScripts(42, 3, shapePaperMix, newZipfKeys(1000, 1.0))
	c := newScripts(43, 3, shapePaperMix, newZipfKeys(1000, 1.0))
	same, differs := true, false
	for i := range a {
		for j := range a[i].keys {
			same = same && a[i].keys[j] == b[i].keys[j]
			differs = differs || a[i].keys[j] != c[i].keys[j]
		}
	}
	if !same {
		t.Error("the same seed gave different scripts")
	}
	if !differs {
		t.Error("another seed gave the same scripts")
	}
	if n := len(a[0].keys); n%6 != 0 || n > scriptOps || n < scriptOps-6 {
		t.Errorf("script has %d ops, want the multiple of 6 just under %d", n, scriptOps)
	}
	// Zipf 1.0 over 1000 keys: rank 0 carries 1/H(1000) = 13.4 % of draws.
	zero := 0
	for _, k := range a[0].keys {
		if k == 0 {
			zero++
		}
	}
	if share := float64(zero) / float64(len(a[0].keys)); share < 0.12 || share > 0.15 {
		t.Errorf("hottest key drawn %.3f of the time, want about 0.134", share)
	}
}

func TestValueNamesKeyAndWriter(t *testing.T) {
	ks := newKeyspace(10, 64)
	v := ks.value(3, 7, 1234)
	if len(v) != 64 {
		t.Fatalf("len = %d, want 64", len(v))
	}
	if want := "k000003|c07|s0000001234|"; string(v[:len(want)]) != want {
		t.Errorf("value starts %q, want %q", v[:len(want)], want)
	}
	if !ks.wellFormed(3, v) || ks.wellFormed(4, v) || ks.wellFormed(3, v[:63]) {
		t.Error("wellFormed does not tell the key or the length")
	}
}
