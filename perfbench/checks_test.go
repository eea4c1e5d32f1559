package main

import (
	"math/rand"
	"testing"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// servedAfterRTTs drives a toy AS deployment through deploy.Manager with
// a few rtt batches and returns its starting topology, the posted
// deltas and the topology it serves afterwards.
func servedAfterRTTs(t *testing.T) (*topology.Topology, []deploy.Delta, *topology.Topology) {
	t.Helper()
	w := toy(t, "probe-rtt")
	p, start, err := w.newPlanner(nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := deploy.New(p, w.deployConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen := w.gen(7, start, 1)
	var posted []deploy.Delta
	for i := 0; i < 6; i++ {
		b := gen.next()
		if _, err := m.Apply(b.deltas); err != nil {
			t.Fatal(err)
		}
		posted = append(posted, b.deltas...)
	}
	return start, posted, m.Current().Snapshot.Topology
}

func TestClosureOracleAcceptsServedMatrix(t *testing.T) {
	start, posted, served := servedAfterRTTs(t)
	w := toy(t, "probe-rtt")
	if err := closureOracle(served, start, posted, w.planConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestClosureOracleRejectsOnePerturbedEntry(t *testing.T) {
	start, posted, served := servedAfterRTTs(t)
	w := toy(t, "probe-rtt")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		bad := served.Clone()
		u, v := rng.Intn(bad.Size()), rng.Intn(bad.Size())
		if u == v {
			continue
		}
		bad.Distances().Set(u, v, bad.RTT(u, v)*1.001)
		if err := closureOracle(bad, start, posted, w.planConfig()); err == nil {
			t.Errorf("oracle accepted RTT(%d,%d) off by 0.1%%", u, v)
		}
	}
	// Leaving out one posted delta is a stale entry, too.
	if err := closureOracle(served, start, posted[1:], w.planConfig()); err == nil {
		t.Error("oracle accepted a matrix missing one posted RTT")
	}
}
