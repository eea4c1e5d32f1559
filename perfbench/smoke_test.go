package main

import (
	"encoding/json"
	"os"
	"testing"
)

// toy returns the named workload shrunk to run in a few seconds: a
// small AS graph, few watchers, one set-up per segment.
func toy(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.asSites = 100
	w.rate = 40
	w.watchers = min(w.watchers, 8*w.tenants)
	w.setups = 1
	w.closed = 6
	w.prep = min(w.prep, 3)
	return w
}

func TestToyRuns(t *testing.T) {
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			w := toy(t, w.name)
			ru, err := runWorkload(&w, 3, 0.3, trace, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if ru.tally.failed != 0 || ru.tally.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed: %v",
					w.name, trace, ru.tally.failed, ru.tally.attempted, ru.tally.problems)
			}
			if !trace {
				continue
			}
			if len(ru.spans.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
			m := ru.perLayer()
			// Each workload stresses the layer it was chosen for.
			switch w.name {
			case "probe-rtt":
				if m["plan.topology_share"] != 1 {
					t.Errorf("probe-rtt: topology share %v, want 1", m["plan.topology_share"])
				}
			case "demand-fanout":
				if m["plan.topology_share"] != 0 || m["plan.strategy_share"] != 1 {
					t.Errorf("demand-fanout: topology share %v, strategy share %v; want 0 and 1",
						m["plan.topology_share"], m["plan.strategy_share"])
				}
			case "durable-capacity":
				if m["strategy.warm_share"] != 0 || m["journal.bytes_per_batch"] <= 0 {
					t.Errorf("durable-capacity: warm share %v, journal bytes/batch %v; want 0 and > 0",
						m["strategy.warm_share"], m["journal.bytes_per_batch"])
				}
			}
		}
	}
}

// Traffic of one seed is the same on every run, so the plan quality a
// run reports is too.
func TestPlanResponseRepeatsAtSameSeed(t *testing.T) {
	w := toy(t, "durable-capacity")
	var got []float64
	for i := 0; i < 2; i++ {
		ru, err := runWorkload(&w, 5, 0.3, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ru.endToEnd()["plan_response_ms"])
	}
	if got[0] != got[1] {
		t.Errorf("plan_response_ms %v then %v at the same seed", got[0], got[1])
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind  string
		spec  []specMetric
		units map[string]string
	}{
		{"end_to_end", spec.EndToEnd, endToEndUnits},
		{"per_layer", spec.PerLayer, perLayerUnits()},
	} {
		if len(tc.spec) != len(tc.units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", tc.kind, len(tc.spec), len(tc.units))
		}
		for _, m := range tc.spec {
			if unit, ok := tc.units[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s [%s] in BENCHMARK.json, benchmark reports unit %q", tc.kind, m.Name, m.Unit, unit)
			}
		}
	}
	var raw struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(raw.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(raw.Workloads), len(ws))
	}
	for i, w := range raw.Workloads {
		if w.Name != ws[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the benchmark", i, w.Name, ws[i].name)
		}
	}
}
