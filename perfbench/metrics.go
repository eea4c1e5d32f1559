package main

import (
	"fmt"
	"math"
	"strings"

	"github.com/quorumnet/quorumnet/internal/plan"
)

// Metric names and units. BENCHMARK.json lists the same names with the
// same units (TestMetricsMatchBenchmarkJSON).
var endToEndUnits = map[string]string{
	"setup_s":          "s",
	"visible_p50_ms":   "ms",
	"apply_hz":         "batches/s",
	"plan_response_ms": "ms",
	"live_heap_mb":     "MB",
	"figures_s":        "s",
}

func perLayerUnits() map[string]string {
	u := map[string]string{
		"visible_p90_ms":              "ms",
		"topology.build_ms":           "ms",
		"plan.cold_ms":                "ms",
		"plan.topology_share":         "fraction",
		"plan.placement_share":        "fraction",
		"plan.strategy_share":         "fraction",
		"plan.eval_only_share":        "fraction",
		"deploy.apply_ms_p50":         "ms",
		"deploy.apply_ms_p90":         "ms",
		"deploy.publish_ratio":        "fraction",
		"deploy.hold_ratio":           "fraction",
		"strategy.lp_iters_mean":      "count",
		"strategy.warm_share":         "fraction",
		"serve.post_ms_p50":           "ms",
		"serve.overhead_ms_p50":       "ms",
		"serve.encode_ms_p50":         "ms",
		"serve.fanout_ms_p90":         "ms",
		"serve.body_bytes":            "bytes",
		"serve.throttled":             "count",
		"serve.rejected":              "count",
		"serve.delta_errors":          "count",
		"journal.bytes_per_batch":     "bytes",
		"journal.replay_ms_per_batch": "ms",
		"bench.gen_late_ms_p90":       "ms",
		"bench.trace_overhead_pct":    "%",
	}
	for _, id := range experimentIDs() {
		u["experiments."+id+"_s"] = "s"
	}
	return u
}

// metrics computes the end-to-end metrics of an untraced run or the
// per-layer metrics of a traced one. A percentile without ten samples
// beyond it is an error, not a number.
func (ru *run) metrics() (map[string]metric, error) {
	var values map[string]float64
	units := endToEndUnits
	if ru.trace {
		values, units = ru.perLayer(), perLayerUnits()
	} else {
		values = ru.endToEnd()
	}
	out := make(map[string]metric, len(units))
	var bad []string
	for name, unit := range units {
		v, ok := values[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			bad = append(bad, name)
			continue
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	if len(bad) > 0 {
		return out, fmt.Errorf("no value (too few samples) for %s", strings.Join(bad, ", "))
	}
	return out, nil
}

func pct(xs []float64, p float64) float64 {
	v, _ := percentile(xs, p)
	return v
}

// visible returns the delta-to-visible latencies of one phase's
// batches, of segment seg only when seg ≥ 0: scheduled send to the HTTP
// watcher's first body at or past the published version.
func (ru *run) visible(phase string, seg int) []float64 {
	var out []float64
	for _, r := range ru.recs {
		if r.phase == phase && (seg < 0 || r.seg == seg) && r.visible > 0 {
			out = append(out, ms(r.visible-r.sched))
		}
	}
	return out
}

// minSegment is how many visible-latency samples each segment needs
// for its median to count.
const minSegment = 10

// endToEnd averages each timing over the segments, so that it follows
// the machine's mean speed over the run: a median over the whole run
// would jump to whichever of its two speed levels held more of the run.
// Within a segment a timing is a median.
func (ru *run) endToEnd() map[string]float64 {
	var setups [segments][]float64
	for _, s := range ru.setupTimes {
		setups[s.seg] = append(setups[s.seg], float64(s.endNS-s.startNS)/1e9)
	}
	var setupMeds, visibleMeds, responses, figures []float64
	for _, xs := range setups {
		setupMeds = append(setupMeds, median(xs))
	}
	for k := range segments {
		xs := ru.visible("open", k)
		if len(xs) < minSegment {
			xs = nil // median(nil) is NaN: too few samples
		}
		visibleMeds = append(visibleMeds, median(xs))
	}
	for _, r := range ru.recs {
		if r.published {
			responses = append(responses, r.responseMS)
		}
	}
	for _, f := range ru.figures {
		figures = append(figures, float64(f.endNS-f.startNS)/1e9)
	}
	return map[string]float64{
		"setup_s":        mean(setupMeds),
		"visible_p50_ms": mean(visibleMeds),
		"apply_hz":       ru.closedRate(),
		// The mean over every published plan, not only the last: the
		// batch sequence is fixed by the seed, so this is deterministic,
		// and it does not hinge on one seed's final draw.
		"plan_response_ms": mean(responses),
		"live_heap_mb":     ru.heapMB,
		"figures_s":        mean(figures),
	}
}

// closedRate is the closed-loop throughput: every closed-loop batch
// over the time the segments' closed-loop bursts took together.
func (ru *run) closedRate() float64 {
	var first, last [segments]*record
	var count [segments]int
	for _, r := range ru.recs {
		if r.phase != "closed" {
			continue
		}
		if first[r.seg] == nil {
			first[r.seg] = r
		}
		last[r.seg] = r
		count[r.seg]++
	}
	var n, ns int64
	for k := range count {
		if count[k] > 0 {
			n += int64(count[k])
			ns += last[k].acked - first[k].sent
		}
	}
	return float64(n) / (float64(ns) / 1e9)
}

func (ru *run) perLayer() map[string]float64 {
	m := map[string]float64{}
	var topo, cold, replay []float64
	for _, s := range ru.setupTimes {
		topo = append(topo, ms(s.sum("topology.build")))
		if ru.w.journaled {
			cold = append(cold, ms(s.sum("plan.new")+ru.coldNS))
			if s.replayed > 0 {
				replay = append(replay, ms(s.sum("deploy.recover")-ru.coldNS)/float64(s.replayed))
			}
		} else {
			cold = append(cold, ms(s.sum("plan.new", "deploy.new")))
		}
	}
	m["topology.build_ms"] = median(topo)
	m["plan.cold_ms"] = median(cold)
	m["journal.replay_ms_per_batch"] = 0
	if len(replay) > 0 {
		m["journal.replay_ms_per_batch"] = median(replay)
	}

	var acked, published, dirtied, holds, lpRuns, warm, topoN, placeN, stratN, evalN int
	var apply, post, overhead, late, iters []float64
	for _, r := range ru.recs {
		if !r.traced || !r.ok {
			continue
		}
		acked++
		apply = append(apply, r.applyMS)
		post = append(post, ms(r.acked-r.sent))
		overhead = append(overhead, ms(r.acked-r.sent)-r.applyMS)
		if r.phase == "open-traced" {
			late = append(late, ms(r.sent-r.sched))
		}
		if !r.published {
			continue
		}
		published++
		topoN += b2i(r.has(plan.StageTopology))
		placeN += b2i(r.has(plan.StagePlacement))
		stratN += b2i(r.has(plan.StageStrategy))
		evalN += b2i(r.evalOnly)
		if r.placementDirtied() {
			dirtied++
			holds += b2i(strings.HasPrefix(r.decision, "hold"))
		}
		if r.has(plan.StageStrategy) && r.hasLP {
			lpRuns++
			iters = append(iters, float64(r.lpIters))
			warm += b2i(strings.Contains(r.lpMethod, "warm"))
		}
	}
	m["plan.topology_share"] = share(topoN, published)
	m["plan.placement_share"] = share(placeN, published)
	m["plan.strategy_share"] = share(stratN, published)
	m["plan.eval_only_share"] = share(evalN, published)
	m["deploy.apply_ms_p50"] = pct(apply, 0.5)
	m["deploy.apply_ms_p90"] = pct(apply, 0.9)
	m["deploy.publish_ratio"] = share(published, acked)
	m["deploy.hold_ratio"] = share(holds, dirtied)
	m["strategy.lp_iters_mean"] = 0
	if lpRuns > 0 {
		m["strategy.lp_iters_mean"] = mean(iters)
	}
	m["strategy.warm_share"] = share(warm, lpRuns)
	m["serve.post_ms_p50"] = pct(post, 0.5)
	m["serve.overhead_ms_p50"] = pct(overhead, 0.5)
	m["bench.gen_late_ms_p90"] = pct(late, 0.9)

	var encode, fanout []float64
	for _, agg := range ru.aggs {
		for v := range agg {
			a := &agg[v]
			if a.wakes.Load() == 0 {
				continue
			}
			encode = append(encode, ms(a.encodeNS.Load()))
			if a.wakes.Load() > 1 {
				fanout = append(fanout, ms(a.last.Load()-a.first.Load()))
			}
		}
	}
	m["serve.encode_ms_p50"] = pct(encode, 0.5)
	m["serve.fanout_ms_p90"] = pct(fanout, 0.9)
	m["serve.body_bytes"] = float64(ru.bodyLen)
	var throttled, rejected, deltaErrors uint64
	for _, s := range ru.stats {
		throttled += s.Throttled
		rejected += s.Rejected
		deltaErrors += s.DeltaErrors
	}
	m["serve.throttled"] = float64(throttled)
	m["serve.rejected"] = float64(rejected)
	m["serve.delta_errors"] = float64(deltaErrors)
	m["journal.bytes_per_batch"] = 0
	if ru.w.journaled {
		m["journal.bytes_per_batch"] = float64(ru.journalB) / float64(len(ru.recs))
	}

	// The tail of the untraced phase: its run-to-run spread is wider
	// than any bound an end-to-end metric may have, so it is reported
	// here, without one.
	m["visible_p90_ms"] = pct(ru.visible("open", -1), 0.9)
	untraced, traced := pct(ru.visible("open", -1), 0.5), pct(ru.visible("open-traced", -1), 0.5)
	m["bench.trace_overhead_pct"] = (traced - untraced) / untraced * 100

	for _, id := range experimentIDs() {
		var xs []float64
		for _, f := range ru.figures {
			for _, e := range f.runs {
				if e.id == id {
					xs = append(xs, float64(e.endNS-e.startNS)/1e9)
				}
			}
		}
		m["experiments."+id+"_s"] = median(xs)
	}
	return m
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
