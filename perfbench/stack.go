package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/quorumnet/quorumnet/internal/deploy"
	"github.com/quorumnet/quorumnet/internal/plan"
	"github.com/quorumnet/quorumnet/internal/serve"
	"github.com/quorumnet/quorumnet/internal/topology"
)

// epoch is the origin of every timestamp the benchmark records; now
// reads the monotonic clock against it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// stack is quorumd's serving plane in-process, wired as cmd/quorumd's
// buildTenant wires it, plus the benchmark's watchers.
type stack struct {
	w       *workload
	reg     *serve.Registry
	tenants []*serve.Tenant
	start   *topology.Topology // tenant 0's starting topology
	srv     *http.Server
	served  chan error
	base    string
	watch   *httpWatcher
	inproc  *inproc

	timing setupTiming
}

// setupTiming records the calls one set-up made, in order.
type setupTiming struct {
	seg            int // the segment the set-up ran in
	startNS, endNS int64
	calls          []call
	replayed       int // journal batches Recover replayed
}

// call is one timed call the benchmark made into the program.
type call struct {
	name       string
	start, end int64
}

func (tm *setupTiming) add(name string, start int64) {
	tm.calls = append(tm.calls, call{name, start, now()})
}

// sum totals the time of the named calls.
func (tm *setupTiming) sum(names ...string) int64 {
	var t int64
	for _, c := range tm.calls {
		if slices.Contains(names, c.name) {
			t += c.end - c.start
		}
	}
	return t
}

// newPlanner builds one tenant's topology and planner the way quorumd
// does; tm, when not nil, records the two calls.
func (w *workload) newPlanner(tm *setupTiming) (*plan.Planner, *topology.Topology, error) {
	t0 := now()
	topo, err := w.buildTopology()
	if err != nil {
		return nil, nil, err
	}
	t1 := now()
	p, err := plan.New(topo, w.planConfig())
	if tm != nil {
		tm.calls = append(tm.calls, call{"topology.build", t0, t1})
		tm.add("plan.new", t1)
	}
	return p, topo, err
}

func (w *workload) deployConfig() deploy.Config {
	return deploy.Config{MoveCost: defaultMoveCost, HistoryLimit: defaultHistory}
}

// setup builds the stack and returns once the first plan body has been
// served over HTTP with every watcher parked. A journaled workload
// recovers its tenant from the journal at path.
func setup(w *workload, journal string) (*stack, error) {
	st := &stack{w: w, reg: serve.NewRegistry(serve.Options{})}
	tm := &st.timing
	tm.startNS = now()
	for i := 0; i < w.tenants; i++ {
		p, topo, err := w.newPlanner(tm)
		if err != nil {
			st.closeManagers()
			return nil, err
		}
		if i == 0 {
			st.start = topo
		}
		t0 := now()
		var m *deploy.Manager
		if w.journaled {
			m, tm.replayed, err = deploy.Recover(p, w.deployConfig(), journal)
			tm.add("deploy.recover", t0)
		} else {
			m, err = deploy.New(p, w.deployConfig())
			tm.add("deploy.new", t0)
		}
		if err != nil {
			st.closeManagers()
			return nil, err
		}
		t0 = now()
		t, err := st.reg.Open(w.tenantName(i), m)
		tm.add("serve.open", t0)
		if err != nil {
			_ = m.CloseJournal()
			st.closeManagers()
			return nil, err
		}
		st.tenants = append(st.tenants, t)
	}
	t0 := now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.closeManagers()
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: st.reg.Handler()}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	tm.add("serve.listen", t0)

	t0 = now()
	st.inproc = startInproc(st.tenants, w.watchers)
	tm.add("watchers.park", t0)

	t0 = now()
	st.watch = newHTTPWatcher(st.base, w.tenantName(0))
	err = st.watch.first()
	tm.add("serve.first_body", t0)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("first plan body: %w", err)
	}
	tm.endNS = now()
	st.watch.start()
	return st, nil
}

// close stops the watchers and the listener and detaches the journals.
func (st *stack) close() {
	st.watch.stop()
	st.inproc.stop()
	_ = st.srv.Close()
	<-st.served
	st.closeManagers()
}

func (st *stack) closeManagers() {
	for _, t := range st.tenants {
		// Close errors surface as a failed replay check on the journaled
		// workload; the other tenants have no journal.
		_ = t.Manager().CloseJournal()
	}
}

// httpWatcher is the one long-poll client: it GETs the plan of one
// tenant with ?after=<last seen version> and records every body.
type httpWatcher struct {
	client *http.Client
	url    string

	last     atomic.Uint64
	mu       sync.Mutex
	receipts []receipt

	cancel context.CancelFunc
	done   chan struct{}
}

// receipt is one plan body the watcher received; ok is false when the
// read failed or the body broke the serving contract.
type receipt struct {
	at      int64
	version uint64
	ok      bool
	problem string
}

func newHTTPWatcher(base, tenant string) *httpWatcher {
	return &httpWatcher{
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
		url:    base + "/v1/deployments/" + url.PathEscape(tenant) + "/plan",
		done:   make(chan struct{}),
	}
}

// first fetches the current plan without waiting.
func (hw *httpWatcher) first() error {
	r := hw.get(context.Background(), hw.url, 0)
	hw.record(r)
	if !r.ok {
		return errors.New(r.problem)
	}
	return nil
}

func (hw *httpWatcher) start() {
	ctx, cancel := context.WithCancel(context.Background())
	hw.cancel = cancel
	go func() {
		defer close(hw.done)
		for ctx.Err() == nil {
			after := hw.last.Load()
			r := hw.get(ctx, fmt.Sprintf("%s?after=%d&timeout=30s", hw.url, after), after)
			if ctx.Err() != nil {
				return // the stop, not the server, ended this read
			}
			hw.record(r)
			if !r.ok {
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()
}

func (hw *httpWatcher) stop() {
	if hw.cancel != nil {
		hw.cancel()
		<-hw.done
	}
	hw.client.CloseIdleConnections()
}

func (hw *httpWatcher) record(r receipt) {
	hw.mu.Lock()
	hw.receipts = append(hw.receipts, r)
	hw.mu.Unlock()
	if r.ok && r.version > hw.last.Load() {
		hw.last.Store(r.version)
	}
}

// get performs one plan read and checks the body: it must parse, its
// ETag must be "v<version>", and its version must not be older than
// the cursor the read asked to pass (equal means the poll timed out).
func (hw *httpWatcher) get(ctx context.Context, u string, after uint64) receipt {
	fail := func(format string, args ...any) receipt {
		return receipt{at: now(), problem: fmt.Sprintf(format, args...)}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fail("%v", err)
	}
	resp, err := hw.client.Do(req)
	if err != nil {
		return fail("%v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	at := now()
	if err != nil {
		return fail("reading body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fail("status %d", resp.StatusCode)
	}
	var p serve.PlanJSON
	if err := json.Unmarshal(body, &p); err != nil {
		return fail("body does not parse: %v", err)
	}
	if want := fmt.Sprintf("%q", fmt.Sprintf("v%d", p.Version)); resp.Header.Get("ETag") != want {
		return fail("ETag %s for version %d", resp.Header.Get("ETag"), p.Version)
	}
	if p.Version < after {
		return fail("version %d after cursor %d", p.Version, after)
	}
	return receipt{at: at, version: p.Version, ok: true}
}

// sender is the one in-order delta poster.
type sender struct {
	client *http.Client
	urls   []string
}

func (st *stack) newSender() *sender {
	s := &sender{client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}}
	for i := range st.tenants {
		s.urls = append(s.urls, st.base+"/v1/deployments/"+url.PathEscape(st.w.tenantName(i))+"/deltas")
	}
	return s
}

func (s *sender) post(tenant int, body []byte) (serve.DeltasResponse, error) {
	var out serve.DeltasResponse
	resp, err := s.client.Post(s.urls[tenant], "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, fmt.Errorf("decoding reply: %w", err)
	}
	return out, nil
}

// inproc is the set of in-process watchers: goroutines parked on
// Tenant.Notify that read Tenant.Encoded on every wake, the park
// protocol the long-poll handler uses.
type inproc struct {
	groups []*watchGroup
	quit   chan struct{}
	wg     sync.WaitGroup
}

// watchGroup is the watchers of one tenant.
type watchGroup struct {
	t           *serve.Tenant
	last        []atomic.Uint64 // per watcher: newest version read
	regressions atomic.Int64
	// agg, when set, collects per-version wake and encode times (traced
	// phases only).
	agg atomic.Pointer[[]versionAgg]
}

// versionAgg aggregates the wakes that delivered one version.
type versionAgg struct {
	first, last atomic.Int64 // wake times, ns since epoch
	wakes       atomic.Int64
	encodeNS    atomic.Int64 // slowest Encoded call that returned this version
}

func startInproc(tenants []*serve.Tenant, watchers int) *inproc {
	in := &inproc{quit: make(chan struct{})}
	var parked sync.WaitGroup
	for i, t := range tenants {
		n := watchers / len(tenants)
		if i < watchers%len(tenants) {
			n++
		}
		g := &watchGroup{t: t, last: make([]atomic.Uint64, n)}
		in.groups = append(in.groups, g)
		parked.Add(n)
		in.wg.Add(n)
		for j := 0; j < n; j++ {
			go g.watch(j, in.quit, &in.wg, &parked)
		}
	}
	parked.Wait()
	return in
}

func (in *inproc) stop() {
	close(in.quit)
	in.wg.Wait()
}

// trace turns per-version aggregation on for versions up to maxVersion.
func (in *inproc) trace(maxVersion uint64) {
	for _, g := range in.groups {
		a := make([]versionAgg, maxVersion+1)
		g.agg.Store(&a)
	}
}

func (g *watchGroup) watch(i int, quit <-chan struct{}, wg, parked *sync.WaitGroup) {
	defer wg.Done()
	var last uint64
	woke := now()
	for first := true; ; first = false {
		ch := g.t.Notify()
		agg := g.agg.Load()
		t0 := now()
		e := g.t.Encoded()
		switch {
		case e.Version < last:
			g.regressions.Add(1)
		case e.Version > last:
			last = e.Version
			g.last[i].Store(last)
			if agg != nil && e.Version < uint64(len(*agg)) {
				(*agg)[e.Version].add(woke, now()-t0)
			}
		}
		if first {
			parked.Done()
		}
		select {
		case <-ch:
			woke = now()
		case <-quit:
			return
		}
	}
}

func (a *versionAgg) add(woke, encodeNS int64) {
	a.wakes.Add(1)
	for cur := a.first.Load(); (cur == 0 || woke < cur) && !a.first.CompareAndSwap(cur, woke); cur = a.first.Load() {
	}
	for cur := a.last.Load(); woke > cur && !a.last.CompareAndSwap(cur, woke); cur = a.last.Load() {
	}
	for cur := a.encodeNS.Load(); encodeNS > cur && !a.encodeNS.CompareAndSwap(cur, encodeNS); cur = a.encodeNS.Load() {
	}
}

// minLast returns the oldest version any of the group's watchers holds.
func (g *watchGroup) minLast() uint64 {
	m := uint64(1<<64 - 1)
	for i := range g.last {
		m = min(m, g.last[i].Load())
	}
	return m
}

// drain waits until the HTTP watcher and every in-process watcher hold
// each tenant's current version, or the deadline passes.
func (st *stack) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		done := st.watch.last.Load() >= st.tenants[0].Manager().Current().Snapshot.Version
		for i, g := range st.inproc.groups {
			if len(g.last) > 0 && g.minLast() < st.tenants[i].Manager().Current().Snapshot.Version {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}
