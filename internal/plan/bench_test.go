package plan_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// benchConfig is the §7 workhorse: a 5×5 Grid on PlanetLab-50 with
// LP-optimized strategies at high demand.
func benchConfig() plan.Config {
	return plan.Config{
		System:   plan.SystemSpec{Family: "grid", Param: 5},
		Strategy: plan.StratLP,
		Demand:   16000,
	}
}

// BenchmarkColdPlan measures the full pipeline: topology closure, system
// construction, the one-to-one anchor search, a cold strategy LP solve,
// and evaluation.
func BenchmarkColdPlan(b *testing.B) {
	topo := topology.PlanetLab50(topology.DefaultSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := plan.New(topo, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplanDemandDelta measures the incremental path after a
// demand-only delta: only the evaluation stage re-runs (the acceptance
// bar for the staged planner is ≥ 5× over BenchmarkColdPlan; in practice
// the gap is orders of magnitude).
func BenchmarkReplanDemandDelta(b *testing.B) {
	topo := topology.PlanetLab50(topology.DefaultSeed)
	p, err := plan.New(topo, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Plan(); err != nil {
		b.Fatal(err)
	}
	demands := []float64{4000, 16000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SetDemand(demands[i%2]); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplanCapacityDelta measures the warm-start path after a
// capacity-only delta: the LP skeleton is reused, the capacity right-hand
// sides are rewritten, and the solve warm-starts from the previous
// optimal basis.
func BenchmarkReplanCapacityDelta(b *testing.B) {
	topo := topology.PlanetLab50(topology.DefaultSeed)
	p, err := plan.New(topo, benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Plan(); err != nil {
		b.Fatal(err)
	}
	caps := []float64{0.68, 0.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SetUniformCapacity(caps[i%2]); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Plan(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReplanDemandDeltaSpeedup pins the acceptance bar as a test: an
// incremental re-plan after a demand-only delta must be at least 5×
// faster than a cold end-to-end plan. The real ratio is ~1000×; 5× leaves
// enormous headroom for noisy CI machines.
func TestReplanDemandDeltaSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	topo := topology.PlanetLab50(topology.DefaultSeed)

	cold := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := plan.New(topo, benchConfig())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Plan(); err != nil {
				b.Fatal(err)
			}
		}
	})

	p, err := plan.New(topo, benchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(); err != nil {
		t.Fatal(err)
	}
	demands := []float64{4000, 16000}
	warm := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := p.SetDemand(demands[i%2]); err != nil {
				b.Fatal(err)
			}
			if _, err := p.Plan(); err != nil {
				b.Fatal(err)
			}
		}
	})

	coldNs := float64(cold.NsPerOp())
	warmNs := float64(warm.NsPerOp())
	if warmNs <= 0 {
		t.Fatalf("degenerate timing: warm %v ns/op", warmNs)
	}
	ratio := coldNs / warmNs
	t.Logf("cold plan %.2fms, demand-delta re-plan %.4fms: %.0fx", coldNs/1e6, warmNs/1e6, ratio)
	if ratio < 5 {
		t.Fatalf("incremental demand-delta re-plan only %.1fx faster than cold plan, want >= 5x", ratio)
	}
}

// rttSites are the AS-graph sizes the rtt-delta benches run at: the
// benchmark's probe-rtt scale and the 1k-site point ROADMAP measured.
var rttSites = []int{150, 1000}

// rttDeployment builds what cmd/quorumd serves for one tenant on an
// AS graph of n sites: a majority(3,5) planner with the closest strategy
// behind a deploy.Manager at quorumd's default move cost.
func rttDeployment(tb testing.TB, topo *topology.Topology) (*plan.Planner, *deploy.Manager) {
	tb.Helper()
	p, err := plan.New(topo, plan.Config{
		System:   plan.SystemSpec{Family: "majority", Param: 2},
		Strategy: plan.StratClosest,
		Demand:   8000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := deploy.New(p, deploy.Config{MoveCost: 5})
	if err != nil {
		tb.Fatal(err)
	}
	return p, m
}

func asTopology(tb testing.TB, n int) *topology.Topology {
	tb.Helper()
	topo, err := topology.Generate(topology.GenConfig{
		Name: fmt.Sprintf("as%d", n),
		AS:   &topology.ASGraphSpec{Sites: n},
	}, topology.DefaultSeed)
	if err != nil {
		tb.Fatal(err)
	}
	return topo
}

// rttBatch is one probe-mesh-shaped batch: one agent site reports 1–4 of
// its pairs, each at ±30% of the pair's current RTT.
func rttBatch(rng *rand.Rand, p *plan.Planner) []deploy.Delta {
	n := p.Size()
	a := rng.Intn(n)
	k := 1 + rng.Intn(4)
	ds := make([]deploy.Delta, 0, k)
	for len(ds) < k {
		b := rng.Intn(n)
		if b == a {
			continue
		}
		ds = append(ds, deploy.Delta{
			Kind:  deploy.KindRTT,
			A:     p.Site(a).Name,
			B:     p.Site(b).Name,
			Value: p.RTT(a, b) * (0.7 + 0.6*rng.Float64()),
		})
	}
	return ds
}

// BenchmarkReplanRTTDelta measures one probe-mesh rtt batch through
// deploy.Manager.Apply in steady state: a warm-up batch pays the one full
// closure that follows a metric start, then every timed batch recomputes
// only the closure rows its edits change and re-runs placement, strategy
// and evaluation. It reports the closure rows recomputed per edit.
func BenchmarkReplanRTTDelta(b *testing.B) {
	for _, n := range rttSites {
		b.Run(fmt.Sprintf("sites=%d", n), func(b *testing.B) {
			topo := asTopology(b, n)
			p, m := rttDeployment(b, topo)
			rng := rand.New(rand.NewSource(1))
			if _, err := m.Apply(rttBatch(rng, p)); err != nil {
				b.Fatal(err)
			}
			rows, edits := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := rttBatch(rng, p)
				e, err := m.Apply(batch)
				if err != nil {
					b.Fatal(err)
				}
				rows += e.Snapshot.Provenance.Closure.Rows
				edits += len(batch)
			}
			b.ReportMetric(float64(rows)/float64(edits), "rows/edit")
		})
	}
}

// BenchmarkColdPlanAS is the cold counterpart of BenchmarkReplanRTTDelta
// at the same sizes and configuration: plan.New plus deploy.New's first
// plan on the trusted metric.
func BenchmarkColdPlanAS(b *testing.B) {
	for _, n := range rttSites {
		b.Run(fmt.Sprintf("sites=%d", n), func(b *testing.B) {
			topo := asTopology(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rttDeployment(b, topo)
			}
		})
	}
}
