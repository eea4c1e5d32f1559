package main

import (
	"math"
	"strings"
	"testing"
)

func series(vals ...float64) map[int64]float64 {
	m := map[int64]float64{}
	for i, v := range vals {
		m[int64(i+1)] = v
	}
	return m
}

func TestJudge(t *testing.T) {
	base := series(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name  string
		head  map[int64]float64
		bound float64
		want  string
	}{
		{"faster everywhere", series(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), 0.1, "better"},
		{"within bound", series(104, 105, 103, 104, 106, 102, 104, 105, 103, 104), 0.1, "same"},
		{"beyond bound", series(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), 0.1, "worse"},
		{"no bound, clearly slower", series(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), math.NaN(), "worse"},
		{"no bound, mixed", series(104, 97, 103, 99, 106, 95, 104, 98, 103, 99), math.NaN(), "unresolved"},
	} {
		if got := judge(base, tc.head, true, tc.bound); got.label != tc.want {
			t.Errorf("%s: %s (wins %d/%d), want %s", tc.name, got.label, got.wins, got.pairs, tc.want)
		}
	}
	noisy := series(60, 140, 80, 120, 100, 70, 130, 90, 110, 100)
	if got := judge(noisy, series(95, 150, 85, 125, 105, 75, 135, 95, 115, 105), true, 0.1); got.label != "unresolved" {
		t.Errorf("spread beyond the bound: %s, want unresolved", got.label)
	}
	if got := judge(series(10, 11, 9, 10), series(12, 13, 12, 12), false, 0.1); got.label != "better" {
		t.Errorf("higher is better: %s, want better", got.label)
	}
}

func TestCompareFailedChecks(t *testing.T) {
	bound := 0.1
	spec := benchSpec{EndToEnd: []specMetric{{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: &bound}}}
	records := func(latency float64, failed int, correct bool) []runRecord {
		var rs []runRecord
		for seed := int64(1); seed <= 10; seed++ {
			rs = append(rs, runRecord{Workload: "w", Seed: seed, Result: result{
				Correct: correct, Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"latency_ms": {Value: latency + float64(seed)/100, Unit: "ms"}},
			}})
		}
		return rs
	}
	base := map[string][]runRecord{"w/trace0": records(100, 0, true)}
	for _, tc := range []struct {
		name     string
		head     []runRecord
		wantCode int
		want     string
	}{
		{"faster and correct", records(50, 0, true), 0, "better"},
		{"faster with more failures", records(50, 1, true), 1, "unresolved"},
		{"faster but not correct", records(50, 0, false), 1, "unresolved"},
	} {
		var out strings.Builder
		code := printVerdicts(&out, spec, base, map[string][]runRecord{"w/trace0": tc.head})
		if code != tc.wantCode || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d; output:\n%s", tc.name, code, tc.wantCode, out.String())
		}
		if tc.wantCode == 0 && strings.Contains(out.String(), "checks failed") {
			t.Errorf("%s: reports failed checks:\n%s", tc.name, out.String())
		}
	}
}
