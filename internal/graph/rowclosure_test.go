package graph

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// randRaw returns a symmetric n×n raw matrix with a zero diagonal and
// lengths in [1, 100).
func randRaw(n int, rng *rand.Rand) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 1+rng.Float64()*99)
		}
	}
	return m
}

// checkFresh requires the maintained closure to be bit-equal, rows and
// published matrix, to a fresh full recompute of its current raw matrix
// at every worker count, and within 1e-9 relative of the dense
// Floyd–Warshall oracle.
func checkFresh(t *testing.T, rc *RowClosure, got *Matrix, ctx string) {
	t.Helper()
	n := rc.raw.Size()
	for _, workers := range []int{1, 2, 8} {
		fresh := NewRowClosure(rc.raw.Clone(), false)
		want, st := fresh.Close(workers)
		if !st.Full {
			t.Fatalf("%s: fresh closure reported %v, want full", ctx, st)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if a, b := rc.rows.At(i, j), fresh.rows.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: workers=%d: row c[%d][%d] = %v, fresh %v", ctx, workers, i, j, a, b)
				}
				if a, b := got.At(i, j), want.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: workers=%d: closure d(%d,%d) = %v, fresh %v", ctx, workers, i, j, a, b)
				}
			}
		}
	}
	oracle := rc.raw.Clone()
	oracle.MetricClosure()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a, b := got.At(i, j), oracle.At(i, j)
			if math.Abs(a-b) > 1e-9*math.Max(math.Abs(a), math.Abs(b)) {
				t.Fatalf("%s: d(%d,%d) = %v, Floyd–Warshall %v", ctx, i, j, a, b)
			}
		}
	}
}

// TestRowClosureEditsMatchFresh drives random edit sequences — shortcuts,
// increases and reverts — with Close calls at random points, and
// requires the maintained closure to equal a fresh one after every
// Close.
func TestRowClosureEditsMatchFresh(t *testing.T) {
	repairs := 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		rc := NewRowClosure(randRaw(n, rng), false)
		rc.Close(1)
		for step := 0; step < 40; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			old := rc.Raw().At(u, v)
			switch rng.Intn(4) {
			case 0:
				rc.Set(u, v, old*(0.1+0.8*rng.Float64()))
			case 1:
				rc.Set(u, v, old*(1+2*rng.Float64()))
			case 2:
				rc.Set(u, v, 1+rng.Float64()*99)
			default:
				rc.Set(u, v, old*0.5)
				rc.Set(u, v, old)
			}
			if rng.Intn(3) == 0 {
				got, st := rc.Close(1 + rng.Intn(4))
				if !st.Full {
					repairs++
				}
				checkFresh(t, rc, got, "seed "+strconv.Itoa(int(seed)))
			}
		}
		got, _ := rc.Close(2)
		checkFresh(t, rc, got, "final seed "+strconv.Itoa(int(seed)))
	}
	if repairs == 0 {
		t.Fatal("no Close recomputed single rows: the test only exercised full recomputes")
	}
}

// TestRowClosureMetricStart pins the trusted-metric path: an unedited
// metric publishes a copy of raw without computing rows, and the first
// edit brings a full recompute.
func TestRowClosureMetricStart(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	raw := randRaw(12, rng)
	raw.MetricClosure()
	rc := NewRowClosure(raw.Clone(), true)
	got, st := rc.Close(1)
	if !st.Skipped || st.String() != "skipped" {
		t.Fatalf("unedited metric: %v, want skipped", st)
	}
	if rc.rows != nil {
		t.Fatal("unedited metric allocated closure rows")
	}
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if got.At(i, j) != raw.At(i, j) {
				t.Fatalf("skipped closure d(%d,%d) = %v, raw %v", i, j, got.At(i, j), raw.At(i, j))
			}
		}
	}
	rc.Set(0, 5, raw.At(0, 5)*0.5)
	got2, st := rc.Close(2)
	if !st.Full || st.String() != "full" {
		t.Fatalf("first edit from a metric: %v, want full", st)
	}
	if got2 == got || got.At(0, 5) != raw.At(0, 5) {
		t.Fatal("Close mutated a previously published matrix")
	}
	checkFresh(t, rc, got2, "metric start")
	rc.Set(0, 5, raw.At(0, 5)*0.4)
	_, st = rc.Close(2)
	if st.Full || st.Skipped || st.String() != "rows "+strconv.Itoa(st.Rows)+"/12" {
		t.Fatalf("second edit: %v, want rows recomputed", st)
	}
}

// TestRowClosureAbsorbedEdge: an RTT far below one ulp of the distances
// around it is absorbed (fl(d + r) == d), the Bellman fixed point stops
// being unique, and the closure must fall back to a full recompute so it
// still equals a fresh one.
func TestRowClosureAbsorbedEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 10
	rc := NewRowClosure(randRaw(n, rng), false)
	rc.Close(1)
	if !rc.unabsorbed() {
		t.Fatal("lengths in [1,100) reported absorbed")
	}
	rc.Set(2, 7, 1e-300)
	got, st := rc.Close(2)
	if !st.Full {
		t.Fatalf("absorbed edit: %v, want full", st)
	}
	checkFresh(t, rc, got, "absorbed")
	if rc.unabsorbed() {
		t.Fatal("a 1e-300 length beside distances ≥ 1 reported unabsorbed")
	}
	// Later edits keep falling back while the tiny length is present…
	rc.Set(1, 4, rc.Raw().At(1, 4)*1.5)
	got, st = rc.Close(1)
	if !st.Full {
		t.Fatalf("edit beside an absorbed length: %v, want full", st)
	}
	checkFresh(t, rc, got, "absorbed, second edit")
	// …and recompute single rows again once it is gone.
	rc.Set(2, 7, 50)
	got, _ = rc.Close(1)
	checkFresh(t, rc, got, "absorbed length removed")
	rc.Set(1, 4, rc.Raw().At(1, 4)*0.9)
	got, st = rc.Close(1)
	if st.Full {
		t.Fatalf("edit after the absorbed length left: %v, want rows recomputed", st)
	}
	checkFresh(t, rc, got, "rows recomputed after absorption")
}

// TestRowClosureJoinsComponents starts from raw matrices with +Inf
// between two components: a decrease from +Inf joins them and creates
// distances larger than any held before, so the absorption guard must
// cover them when later edits shorter than their ulp are checked by rows.
func TestRowClosureJoinsComponents(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		raw := randRaw(n, rng)
		for i := 0; i < n/2; i++ {
			for j := n / 2; j < n; j++ {
				raw.Set(i, j, Inf)
			}
		}
		rc := NewRowClosure(raw, false)
		got, _ := rc.Close(1)
		checkFresh(t, rc, got, "two components")
		rc.Set(rng.Intn(n/2), n/2+rng.Intn(n-n/2), 1e15)
		got, st := rc.Close(2)
		if st.Full {
			t.Fatalf("joining edit: %v, want rows recomputed", st)
		}
		checkFresh(t, rc, got, "joined")
		for step := 0; step < 10; step++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			rc.Set(u, v, 0.001+0.05*rng.Float64())
			got, _ = rc.Close(1)
			checkFresh(t, rc, got, "seed "+strconv.Itoa(int(seed))+" after the join")
		}
	}
}

// TestRowClosureBulkEditsGoFull pins the crossover: editing every pair
// stops per-row checking once the work passes a full recompute.
func TestRowClosureBulkEditsGoFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30
	rc := NewRowClosure(randRaw(n, rng), false)
	rc.Close(1)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			rc.Set(u, v, rc.Raw().At(u, v)*0.7)
		}
	}
	if !rc.full {
		t.Fatal("scaling every pair did not cross over to a full recompute")
	}
	got, _ := rc.Close(2)
	checkFresh(t, rc, got, "bulk")
}

// FuzzClosureEdits decodes a small raw matrix and an edit sequence and
// requires the maintained closure to match a fresh recompute bit for bit
// (at workers 1, 2 and 8) and Floyd–Warshall to within 1e-9 relative,
// after every Close.
//
// Layout: byte 0 picks n in [2, 8]; the next n(n−1)/2 bytes are the
// upper-triangle lengths (1 + b ms); the rest are 3-byte edits (u, v, op).
// op's low three bits choose the new length — a decrease or increase by
// a factor, a revert to the pair's previous length, an edit of the
// previous pair again, an absorbed 1e-300 ms length, or a plain integer
// — and its top bit closes after the edit.
func FuzzClosureEdits(f *testing.F) {
	f.Add([]byte{4, 10, 20, 30, 40, 50, 60, 0, 1, 0x80, 0, 1, 0x82, 2, 3, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 2 + int(data[0])%7
		data = data[1:]
		if len(data) < n*(n-1)/2 {
			return
		}
		raw := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				raw.Set(i, j, 1+float64(data[0]))
				data = data[1:]
			}
		}
		rc := NewRowClosure(raw, false)
		rc.Close(1)
		prev := map[[2]int]float64{}
		lastU, lastV := 0, 1
		for len(data) >= 3 {
			u, v, op := int(data[0])%n, int(data[1])%n, data[2]
			data = data[3:]
			if u == v {
				v = (u + 1) % n
			}
			if op&7 == 3 {
				u, v = lastU, lastV
			}
			key := [2]int{min(u, v), max(u, v)}
			old := rc.Raw().At(u, v)
			var w float64
			switch op & 7 {
			case 0:
				w = old * 0.5
			case 1:
				w = old * 1.75
			case 2:
				w = prev[key]
				if w == 0 {
					w = old * 0.9
				}
			case 3:
				w = old * 0.99
			case 4:
				w = 1e-300
			default:
				w = float64(op>>3&15) + 1
			}
			prev[key] = old
			lastU, lastV = u, v
			rc.Set(u, v, w)
			if op&0x80 != 0 {
				got, _ := rc.Close(1 + int(op>>4&3))
				checkFresh(t, rc, got, "mid-sequence")
			}
		}
		got, _ := rc.Close(2)
		checkFresh(t, rc, got, "final")
	})
}
