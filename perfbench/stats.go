package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p90 needs at least 100 samples, a p50 at least 20.
const minTail = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// whether enough samples lie beyond it to report it. It does not modify
// xs.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if n-rank < minTail {
		return math.NaN(), false
	}
	s := sorted(xs)
	return s[rank-1], true
}

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// so the benchmark's own spread figures match the ones computed from
// its printed results. It needs at least two samples.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // may extrapolate after clamping, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// share returns num/den, or 0 when nothing was counted.
func share(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
