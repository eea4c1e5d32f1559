// Package placement implements the paper's quorum-placement algorithms
// (§4.1): the optimal single-client one-to-one constructions for Majority
// (distance balls) and Grid (the shell construction), lifted to
// all-clients placements by anchoring at every candidate node; the
// singleton (graph median) placement; the many-to-one almost-capacity-
// respecting placement built on the GAP pipeline; and the iterative
// placement/strategy algorithm of §4.2.
package placement

import (
	"fmt"
	"sort"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/gap"
	"github.com/quorumnet/quorumnet/internal/lp"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Options tunes the placement search.
type Options struct {
	// ScoreBy is the access strategy used to score candidate placements
	// by average network delay over all clients. The paper anchors on the
	// uniform strategy (§4.1); nil defaults to core.BalancedStrategy.
	ScoreBy core.Strategy
	// Candidates restricts the anchor nodes v0 tried; nil tries every
	// node.
	Candidates []int
	// Clients restricts the client set used for scoring; nil uses all
	// nodes (the paper's model).
	Clients []int
	// Workers bounds the anchor-search worker pool (0 = GOMAXPROCS).
	// Callers that already run placements in parallel should pass 1 to
	// avoid multiplying pools.
	Workers int
	// Search selects the anchor-search algorithm for the ball-based
	// one-to-one constructions. SearchAuto (the default) switches to the
	// probe-and-prune search on large candidate sets; SearchExhaustive
	// scores every anchor; SearchPruned forces pruning. All modes return
	// the identical placement — pruning only skips anchors whose score
	// lower bound strictly exceeds an already-scored candidate.
	Search SearchMode
}

func (o Options) scoreBy() core.Strategy {
	if o.ScoreBy == nil {
		return core.BalancedStrategy{}
	}
	return o.ScoreBy
}

func (o Options) candidates(topo *topology.Topology) []int {
	if o.Candidates != nil {
		return o.Candidates
	}
	all := make([]int, topo.Size())
	for i := range all {
		all[i] = i
	}
	return all
}

// Singleton places all elements of an n-element universe on the median of
// the graph — the 2-approximation baseline (Lin).
func Singleton(topo *topology.Topology, n int) (core.Placement, error) {
	node, _ := topo.Median()
	return core.SingletonPlacement(n, node, topo)
}

// score evaluates the average network delay of placement f under the
// scoring strategy.
func score(topo *topology.Topology, sys quorum.System, f core.Placement, opts Options) (float64, error) {
	e, err := core.NewEval(topo, sys, f, 0)
	if err != nil {
		return 0, err
	}
	if opts.Clients != nil {
		if err := e.SetClients(opts.Clients); err != nil {
			return 0, err
		}
	}
	return e.AvgNetworkDelay(opts.scoreBy()), nil
}

// MajorityOneToOne places a threshold system one-to-one: for each anchor
// v0, the universe maps onto the ball B(v0, n) of the n nodes closest to
// v0 whose capacity covers the uniform per-element load (Gupta et al.
// showed any one-to-one map onto a fixed ball has the same single-client
// delay); the anchor with the lowest all-clients average delay wins.
func MajorityOneToOne(topo *topology.Topology, sys quorum.Threshold, opts Options) (core.Placement, error) {
	// Elements map onto the ball in increasing-distance order, so the
	// bound's element→ball-rank permutation is the identity.
	bound := ballBound(topo, sys, nil, opts)
	return searchAnchorsBounded(topo, sys, opts, bound, func(v0 int) (core.Placement, error) {
		nodes, err := capacityBall(topo, v0, sys.UniverseSize(), sys.UniformElementLoad())
		if err != nil {
			return core.Placement{}, err
		}
		return core.NewPlacement(nodes, topo)
	})
}

// GridOneToOne places a k×k grid one-to-one using the paper's shell
// construction: sort the ball's nodes by decreasing distance from v0 and
// fill the grid in L-shaped shells from the top-left, so the bottom-right
// row+column quorum consists of the 2k−1 closest nodes.
func GridOneToOne(topo *topology.Topology, sys quorum.Grid, opts Options) (core.Placement, error) {
	k := sys.Dim()
	n := sys.UniverseSize()
	// The same element→ball-rank permutation drives both the build and the
	// score lower bound, so they cannot drift apart.
	perm := gridShellRanks(k)
	bound := ballBound(topo, sys, perm, opts)
	return searchAnchorsBounded(topo, sys, opts, bound, func(v0 int) (core.Placement, error) {
		nodes, err := capacityBall(topo, v0, n, sys.UniformElementLoad())
		if err != nil {
			return core.Placement{}, err
		}
		target := make([]int, n)
		for u, p := range perm {
			target[u] = nodes[p]
		}
		return core.NewPlacement(target, topo)
	})
}

// gridShellRanks returns the shell construction's element→ball-rank map:
// element u of the k×k grid is hosted on the gridShellRanks(k)[u]-th
// closest ball node. The ball is filled in L-shaped shells from the
// top-left in decreasing-distance order, so the bottom-right row+column
// quorum consists of the 2k−1 closest nodes.
func gridShellRanks(k int) []int {
	n := k * k
	perm := make([]int, n)
	rank := 0
	assign := func(row, col int) {
		perm[row*k+col] = n - 1 - rank
		rank++
	}
	assign(0, 0)
	for s := 1; s < k; s++ {
		for row := 0; row < s; row++ {
			assign(row, s)
		}
		for col := 0; col <= s; col++ {
			assign(s, col)
		}
	}
	return perm
}

// OneToOne dispatches to the construction matching the system's type.
func OneToOne(topo *topology.Topology, sys quorum.System, opts Options) (core.Placement, error) {
	switch s := sys.(type) {
	case quorum.Threshold:
		return MajorityOneToOne(topo, s, opts)
	case quorum.Grid:
		return GridOneToOne(topo, s, opts)
	case quorum.Singleton:
		return Singleton(topo, 1)
	default:
		return core.Placement{}, fmt.Errorf("placement: no one-to-one construction for %s", sys.Name())
	}
}

// searchAnchors builds and scores one candidate placement per anchor and
// keeps the best. Anchors are independent, so they are evaluated on a
// GOMAXPROCS-bounded worker pool; the results are merged in candidate
// order afterwards, which makes the outcome identical to the serial scan
// (ties keep the earliest candidate) regardless of scheduling. Searches
// with a score lower bound use searchAnchorsBounded directly, which can
// prune anchors; this wrapper is the unconditionally exhaustive form.
func searchAnchors(topo *topology.Topology, sys quorum.System, opts Options,
	build func(v0 int) (core.Placement, error)) (core.Placement, error) {
	return searchAnchorsBounded(topo, sys, opts, nil, build)
}

// capacityBall returns the n nodes closest to v0 whose capacity is at
// least minCap, per the paper's requirement cap(v) ≥ load_f(u), ordered by
// (distance, index) as Matrix.Ball orders the whole row. A size-n
// max-heap keeps the n smallest eligible nodes, so an anchor costs
// O(sites·log n) instead of a full sort of its row.
func capacityBall(topo *topology.Topology, v0, n int, minCap float64) ([]int, error) {
	row := topo.RTTRow(v0)
	less := func(a, b int) bool { return row[a] < row[b] || (row[a] == row[b] && a < b) }
	h := make([]int, 0, n)
	for w := range row {
		if topo.Capacity(w) < minCap-1e-12 {
			continue
		}
		if len(h) < n {
			h = append(h, w)
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !less(h[p], h[i]) {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
		} else if n > 0 && less(w, h[0]) {
			h[0] = w
			for i := 0; ; {
				m := i
				if l := 2*i + 1; l < n && less(h[m], h[l]) {
					m = l
				}
				if r := 2*i + 2; r < n && less(h[m], h[r]) {
					m = r
				}
				if m == i {
					break
				}
				h[i], h[m] = h[m], h[i]
				i = m
			}
		}
	}
	if len(h) < n {
		return nil, fmt.Errorf("placement: only %d of %d nodes have capacity ≥ %v", len(h), n, minCap)
	}
	sort.Slice(h, func(i, j int) bool { return less(h[i], h[j]) })
	return h, nil
}

// ManyToOneConfig parameterizes the §4.1.2 almost-capacity-respecting
// placement.
type ManyToOneConfig struct {
	// ElementLoads gives load_p(u) for the shared access strategy p. Nil
	// defaults to the uniform strategy's loads.
	ElementLoads []float64
	// ScoreBy scores candidate placements (defaults to the balanced
	// strategy, matching ElementLoads' default).
	ScoreBy core.Strategy
	// Eps is the Lin–Vitter filtering parameter (default 1).
	Eps float64
	// Candidates and Clients as in Options.
	Candidates []int
	Clients    []int
	// LP passes solver options through to the GAP pipeline's LPs. The
	// zero value reproduces the original solver's pivot sequence;
	// lp.PricingPartial trades that bit-reproducibility for speed.
	LP lp.Options
	// Workers bounds the anchor-search worker pool, as in Options.
	Workers int
}

// ManyToOne computes the almost-capacity-respecting many-to-one placement:
// for each anchor v0 it solves the GAP LP relaxation with costs
// load_p(u)·d(v0, w), filters (Lin–Vitter), rounds (Shmoys–Tardos), and
// returns the anchor whose placement minimizes the all-clients average
// network delay. Node capacities come from the topology and may be
// exceeded by the bounded rounding violation.
func ManyToOne(topo *topology.Topology, sys quorum.System, cfg ManyToOneConfig) (core.Placement, error) {
	n := sys.UniverseSize()
	loads := cfg.ElementLoads
	if loads == nil {
		loads = make([]float64, n)
		for u := range loads {
			loads[u] = sys.UniformElementLoad()
		}
	}
	if len(loads) != n {
		return core.Placement{}, fmt.Errorf("placement: %d element loads for universe %d", len(loads), n)
	}
	eps := cfg.Eps
	if eps == 0 {
		eps = 1
	}
	opts := Options{ScoreBy: cfg.ScoreBy, Candidates: cfg.Candidates, Clients: cfg.Clients, Workers: cfg.Workers}

	caps := topo.Capacities()
	return searchAnchors(topo, sys, opts, func(v0 int) (core.Placement, error) {
		row := topo.RTTRow(v0)
		cost := make([][]float64, n)
		for u := 0; u < n; u++ {
			cost[u] = make([]float64, topo.Size())
			for w := range cost[u] {
				cost[u][w] = loads[u] * row[w]
			}
		}
		ins := &gap.Instance{Sizes: loads, Capacities: caps, Cost: cost}
		a, err := gap.SolveWith(ins, eps, cfg.LP)
		if err != nil {
			return core.Placement{}, fmt.Errorf("placement: anchor %d: %w", v0, err)
		}
		return core.NewPlacement(a.MachineOf, topo)
	})
}
