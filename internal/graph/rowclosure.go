package graph

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/quorumnet/quorumnet/internal/par"
)

// RowClosure maintains the metric closure of a raw distance matrix under
// single-pair edits, as a pure function of the raw matrix.
//
// For each source s it keeps the row c[s] that Dijkstra over the complete
// graph of raw's off-diagonal entries computes. Floating-point addition
// is monotone, so that row is a fixed point of the Bellman equation
//
//	c[s][s] = 0,   c[s][j] = min_{p≠j} fl(c[s][p] + raw[p][j])
//
// and while no edge is absorbed (fl(d + r) > d for every distance d in
// play and every raw length r) it is the only fixed point. The published
// closure is the min-symmetrization min(c[i][j], c[j][i]), as in
// sparseClosure.
//
// Uniqueness is what makes incremental maintenance exact. An edit to one
// pair changes two terms of the equation, so a row whose old values still
// satisfy the new equation is bit-equal to a fresh Dijkstra run and is
// left alone; every other row is run through Dijkstra again on the next
// Close. Which rows are recomputed, and whether a batch of edits ends in
// row recomputes or a full recompute, never changes a bit, so the
// published matrix depends on the raw matrix alone.
//
// A RowClosure is not safe for concurrent use.
type RowClosure struct {
	raw *Matrix
	// metric records that raw is trusted to be its own closure and has
	// not been edited since: the published matrix is a copy of raw and
	// no row is ever computed.
	metric bool

	rows *Matrix // c; nil until the first full recompute
	pub  *Matrix // last published closure; never mutated after Close

	full    bool   // the next Close recomputes every row
	edited  bool   // raw changed since the last Close
	dirty   []bool // per row, an edit since the last Close changes it
	pending []int  // the dirty rows, in the order they were marked
	work    int    // scans spent checking edits since the last Close
	owned   []bool // row already copied into the matrix being published

	// rawMin is a lower bound on every off-diagonal raw length and
	// distMax an upper bound on every finite distance a row has held,
	// both since the last full recompute: if the two clear each other by
	// an ulp, no edge was absorbed at any point in between.
	rawMin, distMax float64
}

// Work is counted in O(n) scans: checking one node against every other.
// A dense Dijkstra row costs about n of them (BenchmarkRowClosure at 1k
// sites: 0.8–1.3 n on a 2-vCPU Xeon VM), so once the checks of a batch of
// edits plus the rows they mark reach a full recompute's n² + n scans,
// the remaining edits skip the checks and the next Close recomputes every
// row: bulk edits (a scenario scaling every RTT) cost O(n³), never O(n⁴).
func fullScans(n int) int { return n*n + n }

// NewRowClosure takes ownership of raw, which must have a zero diagonal
// and non-negative off-diagonal entries (+Inf meaning no direct edge).
// When metric is set the caller vouches that raw already is a metric: the
// first Close publishes a copy of it without computing any row. Otherwise
// raw is min-symmetrized, as MetricClosure does with measured data, and
// the first Close recomputes every row.
func NewRowClosure(raw *Matrix, metric bool) *RowClosure {
	rc := &RowClosure{raw: raw, metric: metric, full: !metric}
	if !metric {
		for i := 0; i < raw.n; i++ {
			for j := i + 1; j < raw.n; j++ {
				d := math.Min(raw.rows[i][j], raw.rows[j][i])
				raw.rows[i][j], raw.rows[j][i] = d, d
			}
		}
	}
	return rc
}

// Raw returns the raw matrix. Callers must not mutate it; edit through
// Set.
func (rc *RowClosure) Raw() *Matrix { return rc.raw }

// Metric reports that raw is a trusted metric no edit has touched, so
// Close publishes it as is.
func (rc *RowClosure) Metric() bool { return rc.metric }

// Set writes the raw length of pair (u, v), both directions, and marks
// every row the edit changes for the next Close. w must be non-negative
// and not NaN. A row costs O(1) to check, O(n) where an increase takes
// away a term that attained its minimum.
func (rc *RowClosure) Set(u, v int, w float64) {
	n := rc.raw.n
	if u < 0 || u >= n || v < 0 || v >= n || u == v {
		panic(fmt.Sprintf("graph: closure edit (%d,%d) out of range [0,%d)", u, v, n))
	}
	old := rc.raw.rows[u][v]
	if old == w {
		return
	}
	rc.raw.Set(u, v, w)
	rc.edited = true
	rc.rawMin = math.Min(rc.rawMin, w)
	if rc.metric || rc.rows == nil {
		// The first edit from a trusted metric: no row exists yet.
		rc.metric = false
		rc.full = true
	}
	if rc.full {
		return
	}
	rc.work++
	for s, c := range rc.rows.rows {
		if !rc.dirty[s] && rc.changes(s, c, u, v, old, w) {
			rc.dirty[s] = true
			rc.pending = append(rc.pending, s)
		}
	}
	if rc.work+n*len(rc.pending) >= fullScans(n) {
		rc.full = true
	}
}

// changes reports that row c of source s, a fixed point before pair
// (u, v) moved from old to w, is not one after: the edit changes only the
// term fl(c[u] + w) of v's equation and fl(c[v] + w) of u's. A decrease
// breaks an equation its new term undercuts. An increase can only break
// one whose minimum the old term attained, and then only if no other term
// attains it.
func (rc *RowClosure) changes(s int, c []float64, u, v int, old, w float64) bool {
	if w < old {
		return c[u]+w < c[v] || c[v]+w < c[u]
	}
	return s != v && c[u]+old == c[v] && !rc.supported(c, v) ||
		s != u && c[v]+old == c[u] && !rc.supported(c, u)
}

// supported reports that some term of node j's equation in row c attains
// c[j].
func (rc *RowClosure) supported(c []float64, j int) bool {
	rc.work++
	cj, rj := c[j], rc.raw.rows[j] // raw is symmetric
	for p, d := range c {
		if p != j && d+rj[p] == cj {
			return true
		}
	}
	return false
}

// CloseStats reports what one Close did.
type CloseStats struct {
	// Full is set when every row was recomputed; Skipped when no row
	// exists because the raw matrix is a trusted, unedited metric.
	Full, Skipped bool
	// Rows is the number of rows recomputed since the last Close, N the
	// number of sites.
	Rows, N int
}

// String returns "skipped", "full" or "rows k/n".
func (s CloseStats) String() string {
	switch {
	case s.Skipped:
		return "skipped"
	case s.Full:
		return "full"
	}
	return fmt.Sprintf("rows %d/%d", s.Rows, s.N)
}

// Close brings the published closure up to date with every edit so far
// and returns it. Recomputed rows fan out across at most workers
// goroutines (<= 0 means GOMAXPROCS). The returned matrix is shared:
// callers and later Closes never mutate it, and a Close after row
// recomputes returns a new matrix, which may share rows with earlier
// ones.
func (rc *RowClosure) Close(workers int) (*Matrix, CloseStats) {
	n := rc.raw.n
	st := CloseStats{N: n}
	if rc.metric {
		if rc.pub == nil {
			rc.pub = rc.raw.Clone()
		}
		st.Skipped = true
		return rc.pub, st
	}
	if rc.edited && !rc.unabsorbed() {
		// Uniqueness is not guaranteed, so a row the checks left alone
		// may differ from a fresh run: recompute them all.
		rc.full = true
	}
	rc.edited = false
	rc.work = 0
	if rc.full {
		rc.recomputeAll(workers)
		st.Full, st.Rows = true, n
		return rc.pub, st
	}
	st.Rows = len(rc.pending)
	if st.Rows == 0 {
		return rc.pub, st
	}
	rc.recompute(rc.pending, workers)
	rc.pub = rc.patch()
	return rc.pub, st
}

// patch publishes the recomputed rows: a new matrix that shares every row
// of the previous one no changed entry touches and owns copies of the
// rest, so a Close costs O(n) per recomputed row on top of the rows
// themselves instead of a whole matrix, and the snapshots holding earlier
// matrices share storage. Entry (i, j) of the symmetrization can only
// change where row i or row j was recomputed.
func (rc *RowClosure) patch() *Matrix {
	prev, c := rc.pub, rc.rows.rows
	pub := &Matrix{n: prev.n, rows: slices.Clone(prev.rows)}
	owned := rc.owned
	var copied []int
	own := func(i int) {
		if !owned[i] {
			owned[i] = true
			copied = append(copied, i)
			pub.rows[i] = slices.Clone(prev.rows[i])
		}
	}
	for _, i := range rc.pending {
		for j, cij := range c[i] {
			d := math.Min(cij, c[j][i])
			if math.Float64bits(d) != math.Float64bits(pub.rows[i][j]) {
				own(i)
				own(j)
				pub.rows[i][j], pub.rows[j][i] = d, d
			}
		}
		rc.dirty[i] = false
	}
	for _, i := range copied {
		owned[i] = false
	}
	rc.pending = rc.pending[:0]
	return pub
}

// unabsorbed reports that every raw length since the last full recompute
// was at least one ulp of every distance a row held, so fl(d + r) > d
// throughout and every row the checks left alone is the unique fixed
// point.
func (rc *RowClosure) unabsorbed() bool {
	return rc.rawMin > 0 && rc.rawMin >= math.Nextafter(rc.distMax, Inf)-rc.distMax
}

// recompute runs Dijkstra again for the given rows, at most workers at a
// time, and raises distMax to cover their distances.
func (rc *RowClosure) recompute(rows []int, workers int) {
	n := rc.raw.n
	rowMax := make([]float64, len(rows))
	pool := sync.Pool{New: func() any { s := make([]int32, 0, n); return &s }}
	par.For(len(rows), workers, func(k int) {
		idx := pool.Get().(*[]int32)
		rowMax[k] = denseRow(rc.raw.rows, rows[k], rc.rows.rows[rows[k]], *idx)
		pool.Put(idx)
	})
	for _, m := range rowMax {
		rc.distMax = math.Max(rc.distMax, m)
	}
}

// recomputeAll recomputes every row in parallel, allocating the rows on
// first use, and publishes a fresh symmetrized matrix.
func (rc *RowClosure) recomputeAll(workers int) {
	n := rc.raw.n
	if rc.rows == nil {
		rc.rows = NewMatrix(n)
		rc.dirty = make([]bool, n)
		rc.owned = make([]bool, n)
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	rc.distMax = 0
	rc.recompute(all, workers)
	pub := NewMatrix(n)
	c := rc.rows.rows
	par.For(n, workers, func(i int) {
		pi, ci := pub.rows[i], c[i]
		for j := range pi {
			pi[j] = math.Min(ci[j], c[j][i])
		}
	})
	rc.pub = pub
	rc.rawMin = Inf
	for i, ri := range rc.raw.rows {
		for j, d := range ri {
			if i != j {
				rc.rawMin = math.Min(rc.rawMin, d)
			}
		}
	}
	for _, i := range rc.pending {
		rc.dirty[i] = false
	}
	rc.pending = rc.pending[:0]
	rc.full = false
}

// denseRow fills c with the shortest-path distances from src over the
// complete graph whose edge lengths are raw's off-diagonal entries, using
// idx (capacity ≥ n) as the unsettled-node list, and returns the largest
// finite distance. Every settled node relaxes every unsettled one, so
// c[j] ends as the minimum of fl(c[p] + raw[p][j]) over the nodes settled
// before j — and nodes settled later cannot lower it, since addition is
// monotone and their distances are no smaller.
func denseRow(raw [][]float64, src int, c []float64, idx []int32) float64 {
	for j := range c {
		c[j] = Inf
	}
	c[src] = 0
	idx = idx[:0]
	for j := range c {
		if j != src {
			idx = append(idx, int32(j))
		}
	}
	p, dp := src, 0.0
	for len(idx) > 0 {
		rp := raw[p]
		best, bestD := -1, Inf
		for k, j := range idx {
			// dp ≥ +0, so the sum is never NaN or -0 and min is the
			// plain comparison, without its branch.
			d := min(c[j], dp+rp[j])
			c[j] = d
			if d < bestD {
				best, bestD = k, d
			}
		}
		if best < 0 {
			break // the remaining nodes are unreachable
		}
		p, dp = int(idx[best]), bestD
		last := len(idx) - 1
		idx[best] = idx[last]
		idx = idx[:last]
	}
	return dp
}
