package plan

import (
	"strings"

	"github.com/quorumnet/quorumnet/internal/core"
	"github.com/quorumnet/quorumnet/internal/graph"
	"github.com/quorumnet/quorumnet/internal/quorum"
	"github.com/quorumnet/quorumnet/internal/strategy"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// Snapshot is the immutable, versioned output of one Plan call: the stage
// artifacts, the evaluation measures, and the provenance of the re-plan.
// Snapshots never change after Plan returns — the Topology is a deep copy
// and the planner's later deltas build new artifacts — so a snapshot may
// be published to concurrent readers (an HTTP serving layer, a history
// ring) without locking, and two snapshots can be compared side by side.
type Snapshot struct {
	// Version increases by one on every Plan call of the producing
	// planner, starting at 1. It identifies the snapshot (ETag, long-poll
	// cursors) and orders re-plans.
	Version uint64

	// Topology is a deep copy of the planned WAN (metric closure applied,
	// capacities current as of this plan).
	Topology *topology.Topology
	// System is the quorum system in force.
	System quorum.System
	// Placement maps the system's elements onto topology sites.
	Placement core.Placement
	// Strategy is the access strategy in force.
	Strategy core.Strategy
	// LP carries the access-strategy LP solution when the planner's
	// strategy kind is "lp" (nil otherwise).
	LP *strategy.Result

	// Alpha is the load-to-delay factor the measures below used; Demand is
	// the per-client demand it derives from.
	Alpha  float64
	Demand float64
	// Weights are the per-site client demand weights (nil = uniform),
	// positionally aligned with the topology's sites.
	Weights []float64

	// Response is avg_v Δ_f(v) with Alpha; NetDelay the same with α = 0;
	// MaxLoad the largest per-node load under the strategy.
	Response float64
	NetDelay float64
	MaxLoad  float64

	// Provenance records which stages this plan re-ran and why.
	Provenance Provenance
}

// Provenance explains a snapshot: the pipeline stages the producing Plan
// call actually re-ran (in pipeline order) and the deltas applied since
// the previous snapshot.
type Provenance struct {
	// Recomputed lists the stages that re-ran — empty when nothing was
	// dirty.
	Recomputed []Stage
	// Deltas describes the planner mutations since the previous Plan, in
	// application order (capped; a trailing "… (+N more)" marks overflow).
	Deltas []string
	// Pinned reports that the placement stage was forced to pinned
	// targets rather than run its construction algorithm (see
	// Planner.PinPlacement) — the deployment layer's hysteresis hold.
	Pinned bool
	// Closure reports what the topology stage's metric closure did:
	// skipped (the raw matrix is a trusted, unedited metric), full (every
	// row recomputed) or k of n rows recomputed; the zero value when the
	// topology stage did not run. It is diagnostic only: the serving
	// layer and journals do not carry it.
	Closure graph.CloseStats
}

// Cold reports a from-scratch plan: every stage ran.
func (p Provenance) Cold() bool { return len(p.Recomputed) == int(numStages) }

// EvalOnly reports that only the evaluation stage re-ran — the cheapest
// possible re-plan (demand-only deltas).
func (p Provenance) EvalOnly() bool {
	return len(p.Recomputed) == 1 && p.Recomputed[0] == StageEval
}

// Summary compresses the recomputed stages into a stable label for
// tables, logs, and the serving layer: "cold", "eval-only", "none", or
// the comma-joined stage names.
func (p Provenance) Summary() string {
	switch {
	case len(p.Recomputed) == 0:
		return "none"
	case p.Cold():
		return "cold"
	case p.EvalOnly():
		return "eval-only"
	}
	names := make([]string, len(p.Recomputed))
	for i, s := range p.Recomputed {
		names[i] = s.String()
	}
	return strings.Join(names, ",")
}

// RecomputedNames returns the recomputed stage names (for tables/logs).
func (s *Snapshot) RecomputedNames() []string {
	out := make([]string, len(s.Provenance.Recomputed))
	for i, st := range s.Provenance.Recomputed {
		out[i] = st.String()
	}
	return out
}
