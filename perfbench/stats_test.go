package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 4, 7}, 2.375, 8.0},
		{[]float64{5, 1}, 0, 6},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	for _, tc := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{50, 100, 100},
		{90, 180, 20},
		{99, 198, 2},
		{100, 200, 0},
	} {
		v, b := percentile(xs, tc.p)
		if v != tc.value || b != tc.beyond {
			t.Errorf("p%g of 1..200 = %v with %d beyond, want %v with %d", tc.p, v, b, tc.value, tc.beyond)
		}
	}
}

// The tail rule reports the highest percentile with at least ten
// samples beyond it, and says how many there are.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{5, 0, 0, false},     // even the median has only 2 beyond
		{25, 50, 12, true},   // p90 would have 2 beyond
		{100, 90, 10, true},  // p99 would have 1 beyond
		{999, 90, 99, true},  // p99 has 9 beyond: one short
		{1000, 99, 10, true}, // p99 qualifies from 1000 samples on
		{3629, 99, 36, true}, // the serve workload's typical count
		{10000, 99.9, 10, true},
	} {
		p, _, beyond, ok := tail(seq(tc.n))
		if p != tc.p || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("tail of %d samples = p%g with %d beyond (ok %v), want p%g with %d (ok %v)",
				tc.n, p, beyond, ok, tc.p, tc.beyond, tc.ok)
		}
	}
}
