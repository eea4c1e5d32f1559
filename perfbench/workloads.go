package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/probe"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// segments is how many interleaved parts a run measures in. The
// machine's speed drifts between a fast and a slow level every ten
// seconds or so: a phase run as one block reads whichever level that
// block had, and a median over a run flips between the two levels. So
// every segment holds some of each phase, each segment yields its own
// value, and a metric averages the segments' values.
const segments = 10

// quorumd's global flag defaults, which every tenant here keeps.
const (
	defaultDemand   = 8000
	defaultMoveCost = 5
	defaultHistory  = 64
)

// workload is one traffic mix driven through quorumd's stack. Rates and
// sizes are chosen so that every open-loop phase of the default run
// length yields at least 100 visible-latency samples (a p90 needs ten
// beyond it, each segment's median needs ten) while the serialized
// apply loop stays under half busy.
type workload struct {
	name string
	// topology is "planetlab50", "daxlist161" or "as" (an AS graph of
	// asSites sites); all are generated at topology.DefaultSeed, so the
	// workload seed reaches the program only through the deltas.
	topology string
	asSites  int
	system   plan.SystemSpec
	strategy plan.StrategyKind
	// tenants deployments share the registry; tenant 0 carries the HTTP
	// long-poll watcher.
	tenants   int
	journaled bool
	// rate is the open-loop schedule in batches per second, summed over
	// tenants (the sender round-robins them).
	rate float64
	// watchers in-process watchers are spread evenly over the tenants.
	watchers int
	// setups is how many times each segment builds a second stack
	// beside the serving one; setup_s averages the segments' medians.
	setups int
	// closed is the batch count of the closed-loop phase (apply_hz),
	// split evenly over the segments; a multiple of segments × tenants
	// keeps each segment whole round-robin cycles.
	closed int
	// prep is the number of batches the journal holds before recovery.
	prep int
	// gen builds the delta generator for a seed over tenant 0's starting
	// topology.
	gen func(seed int64, topo *topology.Topology, tenants int) generator
}

// workloads lists the benchmark's workloads. BENCHMARK.json records why
// each exists.
func workloads() []workload {
	return []workload{
		{
			// Every rtt batch re-closes the full matrix: the closure and
			// placement stages dominate, serve is nearly idle.
			name: "probe-rtt", topology: "as", asSites: 150,
			system: plan.SystemSpec{Family: "majority", Param: 2}, strategy: plan.StratClosest,
			tenants: 1, rate: 10, watchers: 1000, setups: 5, closed: 240,
			gen: newRTTGen,
		},
		{
			// Reporter batches re-solve the access LP: the closure never
			// runs, and every publish wakes thousands of watchers.
			name: "demand-fanout", topology: "planetlab50",
			system: plan.SystemSpec{Family: "grid", Param: 5}, strategy: plan.StratLP,
			tenants: 4, rate: 36, watchers: 10000, setups: 3, closed: 600,
			gen: newTelemetryGen,
		},
		{
			// A journaled tenant plans reproducibly: every batch is a cold
			// Dantzig LP solve plus an fsync, and set-up is a replay.
			name: "durable-capacity", topology: "daxlist161",
			system: plan.SystemSpec{Family: "grid", Param: 5}, strategy: plan.StratLP,
			tenants: 1, journaled: true, rate: 9, watchers: 100, setups: 1, closed: 80, prep: 12,
			gen: newCapacityGen,
		},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tenantName names tenant i: a single-tenant workload serves quorumd's
// "default" tenant.
func (w *workload) tenantName(i int) string {
	if w.tenants == 1 {
		return "default"
	}
	return fmt.Sprintf("t%d", i)
}

func (w *workload) buildTopology() (*topology.Topology, error) {
	switch w.topology {
	case "planetlab50":
		return topology.PlanetLab50(topology.DefaultSeed), nil
	case "daxlist161":
		return topology.Daxlist161(topology.DefaultSeed), nil
	case "as":
		return topology.Generate(topology.GenConfig{
			Name: fmt.Sprintf("as%d", w.asSites),
			AS:   &topology.ASGraphSpec{Sites: w.asSites},
		}, topology.DefaultSeed)
	}
	return nil, fmt.Errorf("unknown topology %q", w.topology)
}

// planConfig is the planner configuration cmd/quorumd builds from its
// flags; a journaled tenant plans reproducibly.
func (w *workload) planConfig() plan.Config {
	return plan.Config{
		System:       w.system,
		Algorithm:    plan.AlgoOneToOne,
		Strategy:     w.strategy,
		Demand:       defaultDemand,
		Reproducible: w.journaled,
	}
}

// batch is one POST /deltas body for one tenant.
type batch struct {
	tenant int
	deltas []deploy.Delta
}

type generator interface {
	next() batch
}

// rttGen emits probe-mesh-shaped batches: one agent site reports 1-4
// of its pairs, each within ±30% of the pair's current RTT. Pairs are
// drawn without replacement, so the final raw matrix is the starting
// one with every posted value written in.
type rttGen struct {
	rng  *rand.Rand
	topo *topology.Topology
	used map[[2]int]bool
}

func newRTTGen(seed int64, topo *topology.Topology, _ int) generator {
	return &rttGen{rng: rand.New(rand.NewSource(seed)), topo: topo, used: make(map[[2]int]bool)}
}

func (g *rttGen) next() batch {
	n := g.topo.Size()
	a := g.rng.Intn(n)
	var ds []deploy.Delta
	for k := 1 + g.rng.Intn(4); len(ds) < k; {
		b := g.rng.Intn(n)
		key := [2]int{min(a, b), max(a, b)}
		if a == b || g.used[key] {
			continue
		}
		g.used[key] = true
		ds = append(ds, deploy.Delta{
			Kind:  deploy.KindRTT,
			A:     g.topo.Site(a).Name,
			B:     g.topo.Site(b).Name,
			Value: g.topo.RTT(a, b) * (0.7 + 0.6*g.rng.Float64()),
		})
	}
	return batch{deltas: ds}
}

// telemetryGen posts what the demand reporter emits: each tenant has a
// probe.Reporter, fed one window of seeded per-site request counts
// (each site's share of the default demand, times a lognormal factor)
// per batch and then flushed. A flush that clears the reporter's
// hysteresis is one [demand, weights] pair, so every batch re-runs the
// strategy stage. Tenants are served round-robin.
type telemetryGen struct {
	rng       *rand.Rand
	sites     []string
	reporters []*probe.Reporter
	i         int
}

func newTelemetryGen(seed int64, topo *topology.Topology, tenants int) generator {
	g := &telemetryGen{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < topo.Size(); i++ {
		g.sites = append(g.sites, topo.Site(i).Name)
	}
	for i := 0; i < tenants; i++ {
		g.reporters = append(g.reporters, probe.NewReporter(probe.ReporterConfig{}))
	}
	return g
}

func (g *telemetryGen) next() batch {
	tenant := g.i % len(g.reporters)
	g.i++
	rep := g.reporters[tenant]
	perSite := defaultDemand / float64(len(g.sites))
	for {
		for _, site := range g.sites {
			rep.Observe(site, int(math.Round(perSite*math.Exp(0.3*g.rng.NormFloat64()))))
		}
		if ds := rep.Flush(); len(ds) > 0 {
			return batch{tenant: tenant, deltas: ds}
		}
	}
}

// capacityGen emits batches of one uniform-capacity, one capacity and
// one weights delta. Capacities of at least 0.8 keep every capacity row
// slack, so each batch is a cold LP solve of the same size; capacities
// that bind for some batches and not others split the batches into a
// cheap and a costly mode, and the median into noise. They also stay
// above the 9/25 uniform element load of a 5×5 grid, so the access LP
// is always feasible and no capacity change moves the placement.
type capacityGen struct {
	rng   *rand.Rand
	sites []string
}

func newCapacityGen(seed int64, topo *topology.Topology, _ int) generator {
	sites := make([]string, topo.Size())
	for i := range sites {
		sites[i] = topo.Site(i).Name
	}
	return &capacityGen{rng: rand.New(rand.NewSource(seed)), sites: sites}
}

func (g *capacityGen) next() batch {
	weights := make(map[string]float64)
	for k := 1 + g.rng.Intn(8); len(weights) < k; {
		weights[g.sites[g.rng.Intn(len(g.sites))]] = 0.5 + 1.5*g.rng.Float64()
	}
	return batch{deltas: []deploy.Delta{
		{Kind: deploy.KindUniformCapacity, Value: 1 + 0.5*g.rng.Float64()},
		{Kind: deploy.KindCapacity, Site: g.sites[g.rng.Intn(len(g.sites))], Value: 0.8 + 0.7*g.rng.Float64()},
		{Kind: deploy.KindWeights, Weights: weights},
	}}
}
