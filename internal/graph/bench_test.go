package graph

import (
	"math/rand"
	"testing"
)

// randSparse builds a connected random graph with n nodes and roughly
// n*deg/2 undirected edges: a random spanning tree plus random extras.
func randSparse(n, deg int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		if err := g.AddEdge(u, v, 1+rng.Float64()*99); err != nil {
			panic(err)
		}
	}
	extra := n * (deg - 2) / 2
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := g.AddEdge(u, v, 1+rng.Float64()*99); err != nil {
			panic(err)
		}
	}
	return g
}

// BenchmarkShortestFrom counts allocations of a single-source Dijkstra on
// a 1024-node sparse graph. The container/heap baseline allocated on every
// push (interface boxing); the indexed 4-ary heap should allocate only the
// returned distance slice plus its one-time workspace.
func BenchmarkShortestFrom(b *testing.B) {
	g := randSparse(1024, 6, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.ShortestFrom(i % g.NumNodes())
	}
}

// BenchmarkClosure compares the parallel sparse closure against the dense
// Floyd–Warshall fallback on a 1k-node AS-scale sparse graph. The ratio of
// the two is the closure speedup BENCH_plan.json tracks.
func BenchmarkClosure(b *testing.B) {
	g := randSparse(1000, 6, 2)
	b.Run("sparse-1k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.sparseClosure(0)
		}
	})
	b.Run("dense-fw-1k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := g.edgeMatrix()
			m.MetricClosure()
		}
	})
}

// BenchmarkRowClosure times RowClosure at 1k sites: the two units its
// work budget compares — one dense Dijkstra row and one O(n) scan (a
// node checked against every other) — a full parallel recompute, and one
// steady-state edit of a random pair to ±30% of its length, its changed
// rows recomputed and published.
func BenchmarkRowClosure(b *testing.B) {
	const n = 1000
	rc := NewRowClosure(randSparse(n, 6, 3).Closure(0), true)
	rc.Set(0, 1, rc.Raw().At(0, 1)*0.5)
	rc.Close(0)
	c := make([]float64, n)
	idx := make([]int32, 0, n)
	b.Run("row", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			denseRow(rc.raw.rows, i%n, c, idx)
		}
	})
	b.Run("scan", func(b *testing.B) {
		m := Inf
		for i := 0; i < b.N; i++ {
			ci, rj := rc.rows.rows[i%n], rc.raw.rows[(i+1)%n]
			for p, d := range ci {
				m = min(m, d+rj[p])
			}
		}
		sinkFloat = m
	})
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewRowClosure(rc.raw.Clone(), false).Close(0)
		}
	})
	b.Run("edit", func(b *testing.B) {
		rng := rand.New(rand.NewSource(4))
		rows := 0
		for i := 0; i < b.N; i++ {
			u, v := rng.Intn(n), rng.Intn(n-1)
			if v >= u {
				v++
			}
			rc.Set(u, v, rc.Raw().At(u, v)*(0.7+0.6*rng.Float64()))
			_, st := rc.Close(0)
			rows += st.Rows
		}
		b.ReportMetric(float64(rows)/float64(b.N), "rows/edit")
	})
}

var sinkFloat float64
