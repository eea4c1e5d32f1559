package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
