package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/serve"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// record is one posted batch as the sender saw it.
type record struct {
	id     int // 1-based batch id, shared by the batch's spans
	tenant int
	phase  string // "open", "open-traced" or "closed"
	seg    int    // the segment of the interleaved untraced phases
	deltas []deploy.Delta

	sched, sent, acked int64
	ok                 bool
	problem            string
	version            uint64
	published          bool
	responseMS         float64
	visible            int64 // HTTP watcher receipt of version, 0 if none

	// Read from the program's own counters after the POST, in traced
	// phases only.
	traced   bool
	applyMS  float64
	stages   []plan.Stage
	evalOnly bool
	decision string
	hasLP    bool
	lpIters  int
	lpMethod string
}

func (r *record) has(s plan.Stage) bool { return slices.Contains(r.stages, s) }

// placementDirtied reports whether the batch made the manager weigh a
// placement move (see deploy.Manager.replan).
func (r *record) placementDirtied() bool {
	return strings.HasPrefix(r.decision, "move") || strings.HasPrefix(r.decision, "hold") ||
		r.decision == "adopt (placement unchanged)"
}

// prepared is a generated batch with its POST body.
type prepared struct {
	batch
	body []byte
}

// runner drives one built stack.
type runner struct {
	w       *workload
	st      *stack
	snd     *sender
	batches []prepared
	lastVer []uint64
	recs    []*record
	seg     int
}

func (r *runner) send(sched int64, phase string, traced bool) *record {
	b := r.batches[len(r.recs)]
	rec := &record{id: len(r.recs) + 1, tenant: b.tenant, phase: phase, seg: r.seg, deltas: b.deltas, sched: sched, traced: traced}
	r.recs = append(r.recs, rec)
	rec.sent = now()
	resp, err := r.snd.post(b.tenant, b.body)
	rec.acked = now()
	if err != nil {
		rec.problem = err.Error()
		return rec
	}
	rec.ok, rec.version, rec.responseMS = true, resp.Version, resp.ResponseMS
	if resp.Version > r.lastVer[b.tenant] {
		rec.published = true
		r.lastVer[b.tenant] = resp.Version
	}
	if traced {
		t := r.st.tenants[b.tenant]
		rec.applyMS = t.Stats().ReplanLastMS
		// Posts are serialized and this sender is the only writer, so the
		// current entry is the one this batch produced.
		if e := t.Manager().Current(); rec.published && e.Snapshot.Version == resp.Version {
			prov := e.Snapshot.Provenance
			rec.stages, rec.evalOnly, rec.decision = prov.Recomputed, prov.EvalOnly(), e.Decision
			if lp := e.Snapshot.LP; lp != nil {
				rec.hasLP, rec.lpIters, rec.lpMethod = true, lp.Iterations, lp.LPMethod
			}
		}
	}
	return rec
}

// openLoop posts n batches on a fixed schedule. A batch that comes due
// while the previous POST is in flight is sent as soon as it returns;
// its latency still counts from when it was due.
func (r *runner) openLoop(n int, phase string, traced bool) {
	period := float64(time.Second) / r.w.rate
	start := now() + int64(5*time.Millisecond)
	for i := 0; i < n; i++ {
		sched := start + int64(float64(i)*period)
		if d := sched - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		r.send(sched, phase, traced)
	}
}

// closedLoop posts n batches back to back.
func (r *runner) closedLoop(n int) {
	for i := 0; i < n; i++ {
		r.send(now(), "closed", false)
	}
}

// part is segment k's share of n batches.
func part(n, k int) int { return n*(k+1)/segments - n*k/segments }

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts attempted operations and checks, and the failed ones.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// checks counts n checks, of which the listed problems failed.
func (t *tally) checks(n int, problems []string) {
	t.attempted += n
	t.failed += len(problems)
	t.problems = append(t.problems, problems...)
}

// journalSeed generates the journal a journaled workload recovers from.
const journalSeed = -1

// run is everything one invocation measured.
type run struct {
	w          *workload
	trace      bool
	setupTimes []setupTiming
	coldNS     int64 // journaled workloads: deploy.New of the same planner, traced runs only
	heapMB     float64
	recs       []*record

	receipts []receipt
	aggs     [][]versionAgg // per tenant, per version (traced phases)
	bodyLen  int
	stats    []serve.TenantStats
	journalB int64 // journal growth during the run

	figures []*figureRun
	tally   tally
	spans   *tracer
}

// runWorkload builds the stack and drives it for seconds of open-loop
// traffic in segments, each also holding set-ups of a second stack, a
// closed-loop burst and a quick-scale figure regeneration (and, traced,
// a second open-loop phase), then checks every output. dir holds the
// run's journals.
func runWorkload(w *workload, seed int64, seconds float64, trace bool, dir string) (*run, error) {
	ru := &run{w: w, trace: trace}
	journal, prep := "", ""
	if w.journaled {
		journal, prep = filepath.Join(dir, "tenant.journal"), filepath.Join(dir, "prep.journal")
		// The journal is the same for every run seed, so each set-up
		// recovers the same state and the seed reaches only the traffic.
		if err := writeJournal(w, prep, journalSeed, w.prep); err != nil {
			return nil, err
		}
		if err := copyFile(prep, journal); err != nil {
			return nil, err
		}
	}
	st, err := setup(w, journal)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ru.heapMB = float64(mem.HeapAlloc) / (1 << 20)

	if trace && w.journaled {
		p, _, err := w.newPlanner(nil)
		if err != nil {
			st.close()
			return nil, err
		}
		t0 := now()
		if _, err := deploy.New(p, w.deployConfig()); err != nil {
			st.close()
			return nil, err
		}
		ru.coldNS = now() - t0
	}

	n := max(1, int(math.Round(w.rate*seconds)))
	total := n + w.closed
	if trace {
		total += n
	}
	gen := w.gen(seed, st.start, w.tenants)
	r := &runner{w: w, st: st, snd: st.newSender(), lastVer: make([]uint64, w.tenants)}
	for i, t := range st.tenants {
		r.lastVer[i] = t.Manager().Current().Snapshot.Version
	}
	for i := 0; i < total; i++ {
		b := gen.next()
		body, err := json.Marshal(serve.DeltasRequest{Deltas: b.deltas})
		if err != nil {
			st.close()
			return nil, err
		}
		r.batches = append(r.batches, prepared{b, body})
	}
	journalStart := fileSize(journal)

	for k := 0; k < segments; k++ {
		r.seg = k
		if err := ru.repeatSetup(k, prep, dir); err != nil {
			st.close()
			return nil, err
		}
		r.openLoop(part(n, k), "open", false)
		r.closedLoop(part(w.closed, k))
		if err := ru.regenerate(); err != nil {
			st.close()
			return nil, err
		}
	}
	if trace {
		st.inproc.trace(slices.Max(r.lastVer) + uint64(total) + 1)
		r.openLoop(n, "open-traced", true)
	}
	r.snd.client.CloseIdleConnections()
	st.drain(5 * time.Second)
	ru.recs = r.recs
	served, servedTopo := ru.collect(st)
	ru.journalB = fileSize(journal) - journalStart

	ru.checkTraffic()
	switch {
	case w.journaled:
		err := replayCheck(w, journal, served)
		ru.tally.check(err == nil, "%v", err)
	case w.topology == "as":
		var rtts []deploy.Delta
		for _, rec := range ru.recs {
			if rec.ok {
				rtts = append(rtts, rec.deltas...)
			}
		}
		err := closureOracle(servedTopo, st.start, rtts, w.planConfig())
		ru.tally.check(err == nil, "%v", err)
	}
	if trace {
		ru.spans = ru.buildSpans()
	}
	return ru, nil
}

// collect stops the stack and keeps what the checks and metrics need:
// the watchers' reads, the tenants' counters, and the plan body and
// topology tenant 0 ended with.
func (ru *run) collect(st *stack) (*serve.Encoded, *topology.Topology) {
	st.watch.stop()
	ru.receipts = st.watch.receipts
	for i, g := range st.inproc.groups {
		final := st.tenants[i].Manager().Current().Snapshot.Version
		for j := range g.last {
			ru.tally.check(g.last[j].Load() >= final, "%s watcher %d holds v%d, tenant is at v%d",
				st.tenants[i].Name(), j, g.last[j].Load(), final)
		}
		ru.tally.check(g.regressions.Load() == 0, "%s: %d in-process reads went back a version",
			st.tenants[i].Name(), g.regressions.Load())
		if a := g.agg.Load(); a != nil {
			ru.aggs = append(ru.aggs, *a)
		}
	}
	served := st.tenants[0].Encoded()
	ru.bodyLen = len(served.Body)
	for _, t := range st.tenants {
		ru.stats = append(ru.stats, t.Stats())
	}
	st.close()
	return served, st.tenants[0].Manager().Current().Snapshot.Topology
}

// repeatSetup builds and closes a second stack w.setups times in segment k,
// while the serving one idles. A journaled workload recovers each from
// a fresh copy of the prep journal.
func (ru *run) repeatSetup(k int, prep, dir string) error {
	for i := 0; i < ru.w.setups; i++ {
		journal := ""
		if prep != "" {
			journal = filepath.Join(dir, "setup.journal")
			if err := copyFile(prep, journal); err != nil {
				return err
			}
		}
		st, err := setup(ru.w, journal)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		st.timing.seg = k
		ru.setupTimes = append(ru.setupTimes, st.timing)
		st.close()
	}
	return nil
}

// regenerate regenerates the paper figures once at quick scale and
// checks every table against the reference.
func (ru *run) regenerate() error {
	want, err := parseTables(referenceQuick)
	if err != nil {
		return fmt.Errorf("reference tables: %w", err)
	}
	fr, err := regenerateFigures()
	if err != nil {
		return err
	}
	ru.tally.checks(len(want), compareTables(fr.tables, want))
	fr.tables = nil
	ru.figures = append(ru.figures, fr)
	return nil
}

func copyFile(from, to string) error {
	data, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, data, 0o644)
}

func fileSize(path string) int64 {
	if path == "" {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// checkTraffic counts every post and every HTTP read, and matches each
// version a batch published on tenant 0 to the first body the HTTP
// watcher received at or past it.
func (ru *run) checkTraffic() {
	for _, rec := range ru.recs {
		ru.tally.check(rec.ok, "batch %d (%s): %s", rec.id, rec.phase, rec.problem)
	}
	var seen []receipt
	for _, rc := range ru.receipts {
		ru.tally.check(rc.ok, "HTTP watcher read: %s", rc.problem)
		if rc.ok {
			seen = append(seen, rc)
		}
	}
	for _, rec := range ru.recs {
		if !rec.published || rec.tenant != 0 {
			continue
		}
		i := sort.Search(len(seen), func(i int) bool { return seen[i].version >= rec.version })
		if i < len(seen) {
			rec.visible = seen[i].at
		}
		ru.tally.check(i < len(seen), "v%d (batch %d) never reached the HTTP watcher", rec.version, rec.id)
	}
}
