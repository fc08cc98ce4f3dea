package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. No interpolation, so the result is always a value that
// was measured. Returns 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of vs (mean of the two middle values for
// an even count) without disturbing vs. Returns 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// medianOfReps reduces per-repetition metric maps to one value per metric:
// the median across repetitions. Every repetition must carry every metric.
func medianOfReps(reps []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	if len(reps) == 0 {
		return out
	}
	for name := range reps[0] {
		vs := make([]float64, 0, len(reps))
		for _, r := range reps {
			vs = append(vs, r[name])
		}
		out[name] = median(vs)
	}
	return out
}

// spread returns (max-min)/median of vs: how far repetitions of one cell
// disagree, as a share of the cell. 0 when the median is 0.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 || len(vs) == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return (hi - lo) / m
}

// coefficientOfVariation returns stddev/mean of vs (population form).
func coefficientOfVariation(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / float64(len(vs))
	if mean == 0 {
		return 0
	}
	var sq float64
	for _, v := range vs {
		sq += (v - mean) * (v - mean)
	}
	return math.Sqrt(sq/float64(len(vs))) / mean
}

// ratio is a/b, or 0 when b is 0: a layer that did no work reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
