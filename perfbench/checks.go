package main

import (
	"bytes"
	"fmt"
	"math"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/serve"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// closureOracle checks the RTT matrix a deployment serves after a run of
// rtt deltas against a cold plan of the same raw state: the starting
// matrix with every posted RTT written in, closed by the dense
// Floyd–Warshall reference and planned from scratch by plan.New.
func closureOracle(served, start *topology.Topology, rtts []deploy.Delta, cfg plan.Config) error {
	raw := start.Distances().Clone()
	index := make(map[string]int, start.Size())
	sites := make([]topology.Site, start.Size())
	for i := range sites {
		sites[i] = start.Site(i)
		index[sites[i].Name] = i
	}
	for _, d := range rtts {
		raw.Set(index[d.A], index[d.B], d.Value)
	}
	raw.MetricClosure()
	topo, err := topology.New(start.Name(), sites, raw)
	if err != nil {
		return fmt.Errorf("closure oracle: %w", err)
	}
	p, err := plan.New(topo, cfg)
	if err != nil {
		return fmt.Errorf("closure oracle: %w", err)
	}
	snap, err := p.Plan()
	if err != nil {
		return fmt.Errorf("closure oracle: cold plan: %w", err)
	}
	return sameMatrix(served, snap.Topology)
}

// sameMatrix compares two topologies' RTT matrices to within rounding
// (1e-9 relative), so a closure that sums paths in another order passes
// and a wrong entry does not.
func sameMatrix(got, want *topology.Topology) error {
	if got.Size() != want.Size() {
		return fmt.Errorf("closure oracle: served %d sites, cold plan %d", got.Size(), want.Size())
	}
	for u := 0; u < want.Size(); u++ {
		for v := 0; v < want.Size(); v++ {
			g, w := got.RTT(u, v), want.RTT(u, v)
			if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
				return fmt.Errorf("closure oracle: served RTT(%s,%s) = %v ms, cold plan %v ms",
					want.Site(u).Name, want.Site(v).Name, g, w)
			}
		}
	}
	return nil
}

// replayCheck recovers a fresh manager from a closed journal and checks
// that it serves exactly the plan body and ETag the run ended with.
func replayCheck(w *workload, path string, served *serve.Encoded) error {
	p, _, err := w.newPlanner(nil)
	if err != nil {
		return err
	}
	m, _, err := deploy.Recover(p, w.deployConfig(), path)
	if err != nil {
		return fmt.Errorf("journal replay: %w", err)
	}
	defer m.CloseJournal()
	t, err := serve.NewRegistry(serve.Options{}).Open(w.tenantName(0), m)
	if err != nil {
		return err
	}
	got := t.Encoded()
	if got.ETag != served.ETag {
		return fmt.Errorf("journal replay ends at ETag %s, the run served %s", got.ETag, served.ETag)
	}
	if !bytes.Equal(got.Body, served.Body) {
		return fmt.Errorf("journal replay serves a different plan body at %s", got.ETag)
	}
	return nil
}

// writeJournal builds a fresh journal at path by applying n batches
// generated from seed, as a daemon that crashed after them would have
// left it.
func writeJournal(w *workload, path string, seed int64, n int) error {
	p, topo, err := w.newPlanner(nil)
	if err != nil {
		return err
	}
	m, _, err := deploy.Recover(p, w.deployConfig(), path)
	if err != nil {
		return err
	}
	gen := w.gen(seed, topo, w.tenants)
	for i := 0; i < n; i++ {
		if _, err := m.Apply(gen.next().deltas); err != nil {
			m.CloseJournal()
			return fmt.Errorf("journal prep batch %d: %w", i, err)
		}
	}
	return m.CloseJournal()
}
