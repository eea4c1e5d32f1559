package placement

import (
	"fmt"
	"math"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/par"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// SearchMode selects the anchor-search algorithm for the one-to-one
// constructions.
type SearchMode int

const (
	// SearchAuto uses the pruned search when a score lower bound is
	// available and the candidate set is large enough to pay for the bound
	// computation; small searches stay exhaustive.
	SearchAuto SearchMode = iota
	// SearchExhaustive builds and scores every candidate anchor.
	SearchExhaustive
	// SearchPruned forces the probe-and-prune search whenever a bound is
	// available (ManyToOne has none and always searches exhaustively).
	SearchPruned
)

// Below this many candidates the bound computation costs more than the
// scoring it could skip.
const prunedMinCandidates = 64

// Probe at least this many anchors before pruning, so a bad first probe
// cannot neutralize the bound for the whole search.
const minProbes = 8

// Resolution of the tier-2 bound's Lipschitz grid over the client distance
// range: the bound loses at most (distance range)/boundGridSteps/2 of
// tightness versus evaluating every client exactly.
const boundGridSteps = 256

// anchorResult records one candidate anchor's outcome.
type anchorResult struct {
	f        core.Placement
	d        float64
	err      error // scoring error: fatal
	buildErr error // build or bound error: anchor skipped
	done     bool  // built and scored (false for pruned anchors)
}

// searchAnchorsBounded is the anchor search behind searchAnchors, plus an
// optional admissible per-anchor lower bound on the score. When pruning is
// enabled it scores a probe set first (median-seeded farthest-point order,
// so the probes cover the metric), then skips every remaining anchor whose
// bound strictly exceeds the incumbent. An anchor is pruned only if its
// true score provably exceeds the final minimum, and anchors tying the
// minimum are never pruned (their bound cannot strictly exceed it), so the
// merge — which scans in candidate order with a strict improvement test —
// returns exactly the placement the exhaustive scan would.
func searchAnchorsBounded(topo *topology.Topology, sys quorum.System, opts Options,
	bound func(v0 int, incumbent float64) (float64, error),
	build func(v0 int) (core.Placement, error)) (core.Placement, error) {

	candidates := opts.candidates(topo)
	usePruned := bound != nil && (opts.Search == SearchPruned ||
		(opts.Search == SearchAuto && len(candidates) >= prunedMinCandidates))

	results := make([]anchorResult, len(candidates))
	evalOne := func(i int) {
		f, err := build(candidates[i])
		if err != nil {
			results[i].buildErr = err // e.g. not enough capacity around this anchor
			return
		}
		d, err := score(topo, sys, f, opts)
		if err != nil {
			results[i].err = err
			return
		}
		results[i] = anchorResult{f: f, d: d, done: true}
	}

	if !usePruned {
		par.For(len(candidates), opts.Workers, evalOne)
		return mergeAnchors(results)
	}

	// Probe phase: score a spread-out subset to establish the incumbent.
	probes := probeOrder(topo, candidates)
	par.For(len(probes), opts.Workers, func(k int) { evalOne(probes[k]) })
	incumbent := math.Inf(1)
	probed := make([]bool, len(candidates))
	for _, i := range probes {
		probed[i] = true
		if r := &results[i]; r.done && r.d < incumbent {
			incumbent = r.d
		}
	}

	// Bound phase: an O(n) bound per remaining anchor, in parallel.
	rest := make([]int, 0, len(candidates)-len(probes))
	for i := range candidates {
		if !probed[i] {
			rest = append(rest, i)
		}
	}
	lbs := make([]float64, len(candidates))
	par.For(len(rest), opts.Workers, func(k int) {
		i := rest[k]
		lb, err := bound(candidates[i], incumbent)
		if err != nil {
			results[i].buildErr = err
			lb = math.Inf(1)
		}
		lbs[i] = lb
	})

	// Score phase: only the anchors the bound could not rule out. If every
	// probe was infeasible the incumbent is +Inf and nothing is pruned,
	// which degrades to the exhaustive scan.
	survivors := make([]int, 0, len(rest))
	for _, i := range rest {
		if results[i].buildErr == nil && lbs[i] <= incumbent {
			survivors = append(survivors, i)
		}
	}
	par.For(len(survivors), opts.Workers, func(k int) { evalOne(survivors[k]) })
	return mergeAnchors(results)
}

// mergeAnchors folds per-anchor results in candidate order with a strict
// improvement test, so ties keep the earliest candidate regardless of how
// the parallel phases were scheduled.
func mergeAnchors(results []anchorResult) (core.Placement, error) {
	bestDelay := math.Inf(1)
	var best core.Placement
	found := false
	var lastErr error
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return core.Placement{}, r.err
		}
		if r.buildErr != nil {
			lastErr = r.buildErr
			continue
		}
		if !r.done {
			continue // pruned: its score provably exceeds the minimum
		}
		if r.d < bestDelay {
			bestDelay = r.d
			best = r.f
			found = true
		}
	}
	if !found {
		if lastErr != nil {
			return core.Placement{}, fmt.Errorf("placement: no feasible anchor: %w", lastErr)
		}
		return core.Placement{}, fmt.Errorf("placement: no candidate anchors")
	}
	return best, nil
}

// probeOrder returns the indices (into candidates) to score before pruning
// starts: the candidate nearest the topology median first — per the paper,
// the optimum clusters around the median, so this probe usually sets a
// near-final incumbent — then greedy farthest-point traversal so the rest
// of the probes cover the metric. ~√n probes keep the phase cheap while
// giving the k-center guarantee that every anchor is within the covering
// radius of some probe.
func probeOrder(topo *topology.Topology, candidates []int) []int {
	n := len(candidates)
	k := int(math.Sqrt(float64(n)))
	if k < minProbes {
		k = minProbes
	}
	if k > n {
		k = n
	}
	med, _ := topo.Median()
	medRow := topo.RTTRow(med)
	pick := 0
	for i, c := range candidates {
		if medRow[c] < medRow[candidates[pick]] {
			pick = i
		}
	}
	probes := make([]int, 0, k)
	chosen := make([]bool, n)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	for len(probes) < k {
		probes = append(probes, pick)
		chosen[pick] = true
		row := topo.RTTRow(candidates[pick])
		next, nextD := -1, math.Inf(-1)
		for i, c := range candidates {
			if d := row[c]; d < minDist[i] {
				minDist[i] = d
			}
			if !chosen[i] && minDist[i] > nextD {
				next, nextD = i, minDist[i]
			}
		}
		if next < 0 {
			break // k > distinct candidates; duplicates need no probing
		}
		pick = next
	}
	return probes
}

// ballBound builds the admissible score lower bound for the ball-based
// one-to-one constructions. perm maps element u to the ball rank of its
// host node (nil means identity, as in the Majority construction); it must
// match what the construction's build function assigns.
//
// Tier 1 (any strategy, O(sites)): every element of anchor v0's placement
// lies in the capacity ball of radius r(v0) around v0, so by the triangle
// inequality any quorum access from client v costs at least
// d(v,v0) − r(v0), and the average network delay is at least
// avg_v max(0, d(v,v0) − r(v0)).
//
// Tier 2 (balanced scoring only): with the uniform strategy the score is
// avg_v ExpectedMaxUniform(cost_v), and ExpectedMaxUniform — an
// expectation of maxima over a fixed quorum distribution — is
// coordinate-wise monotone. Element u sits on the ball node with shell
// distance s[perm[u]], so both triangle bounds give
// cost_v[u] ≥ |d(v,v0) − s[perm[u]]|, and feeding that pointwise floor
// through ExpectedMaxUniform lower-bounds the true score. This is the
// bound that bites on small-world metrics (AS graphs), where tier 1's
// worst-case-quorum floor is far below the uniform strategy's
// expected max. Tier 2 runs only when tier 1 failed to prune.
//
// The floor vector depends on the client only through t = d(v,v0), so
// tier 2 is really a scalar function φ(t) — and φ is 1-Lipschitz (each
// coordinate of the floor is 1-Lipschitz in t, and an expectation of
// maxima preserves that). Instead of paying an ExpectedMaxUniform per
// client, φ is evaluated on a boundGridSteps-point grid over the client
// distance range and extended downward by Lipschitz continuity
// (φ(t) ≥ φ(x) − |t−x|), keeping the per-anchor cost at
// O(grid·universe·log universe + sites) while giving up at most half a
// grid step of bound tightness.
func ballBound(topo *topology.Topology, sys quorum.System, perm []int, opts Options) func(int, float64) (float64, error) {
	nUniv := sys.UniverseSize()
	minCap := sys.UniformElementLoad()
	clients := opts.Clients
	_, balanced := opts.scoreBy().(core.BalancedStrategy)
	return func(v0 int, incumbent float64) (float64, error) {
		shell, err := ballShell(topo, v0, nUniv, minCap)
		if err != nil {
			return 0, err
		}
		r := shell[len(shell)-1]
		row := topo.RTTRow(v0)

		nc := len(clients)
		if clients == nil {
			nc = len(row)
		}
		forClients := func(fn func(t float64)) {
			if clients == nil {
				for _, t := range row {
					fn(t)
				}
				return
			}
			for _, v := range clients {
				fn(row[v])
			}
		}

		sum := 0.0
		forClients(func(t float64) {
			if t > r {
				sum += t - r
			}
		})
		lb := sum / float64(nc)
		if !balanced || lb > incumbent {
			return lb, nil
		}

		maxT := 0.0
		forClients(func(t float64) {
			if t > maxT {
				maxT = t
			}
		})
		if maxT <= 0 {
			return lb, nil
		}
		h := maxT / boundGridSteps
		floor := make([]float64, nUniv)
		phi := make([]float64, boundGridSteps+1)
		for g := range phi {
			t := float64(g) * h
			for u := range floor {
				s := shell[u]
				if perm != nil {
					s = shell[perm[u]]
				}
				if t >= s {
					floor[u] = t - s
				} else {
					floor[u] = s - t
				}
			}
			phi[g] = sys.ExpectedMaxUniform(floor)
		}
		sum = 0
		forClients(func(t float64) {
			g := int(t / h)
			if g >= boundGridSteps {
				g = boundGridSteps - 1
			}
			lo := phi[g] - (t - float64(g)*h)
			if hi := phi[g+1] - (float64(g+1)*h - t); hi > lo {
				lo = hi
			}
			if lo > 0 {
				sum += lo
			}
		})
		if lb2 := sum / float64(nc); lb2 > lb {
			lb = lb2
		}
		return lb, nil
	}
}

// ballShell returns the distances from v0 to the members of
// capacityBall(topo, v0, n, minCap), in increasing order.
func ballShell(topo *topology.Topology, v0, n int, minCap float64) ([]float64, error) {
	nodes, err := capacityBall(topo, v0, n, minCap)
	if err != nil {
		return nil, err
	}
	row := topo.RTTRow(v0)
	shell := make([]float64, len(nodes))
	for i, w := range nodes {
		shell[i] = row[w]
	}
	return shell, nil
}
