package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs, or the mean of the two
// middle values for an even count; 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so the spreads printed here are the ones a
// reader recomputes over a set of runs. It needs at least two values;
// with fewer, both quartiles are the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile of xs (p in
// (0,100]) and how many samples lie beyond it.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	// The epsilon keeps float error in p*n/100 from adding a rank.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted(xs)[rank-1], n - rank
}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be a measurement rather than a single outlier.
const minBeyond = 10

// tailPercentiles is the ladder tail latencies are reported from.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tail returns the highest percentile of the ladder that has at least
// minBeyond samples beyond it, with its value and that count. ok is
// false when not even the median qualifies.
func tail(xs []float64) (p, value float64, beyond int, ok bool) {
	for _, p := range tailPercentiles {
		if v, b := percentile(xs, p); b >= minBeyond {
			return p, v, b, true
		}
	}
	return 0, 0, 0, false
}
