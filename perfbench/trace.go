package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// span is one timed call the benchmark made into the program. Spans of
// one delta batch share its batch id; counters read at the span's end
// ride along as attrs.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Batch  int                `json:"batch,omitempty"`
	Tenant int                `json:"tenant,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	spans []span
}

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// buildSpans lays out the spans of a traced run from the timestamps and
// counters the run recorded at each call boundary.
func (ru *run) buildSpans() *tracer {
	t := &tracer{}
	for k, s := range ru.setupTimes {
		root := t.add(span{Name: "setup", Start: s.startNS, End: s.endNS, Attrs: map[string]float64{
			"rep": float64(k), "segment": float64(s.seg), "replayed": float64(s.replayed)}})
		for _, c := range s.calls {
			t.add(span{Parent: root, Name: c.name, Start: c.start, End: c.end})
		}
	}
	published := make([]map[uint64]int, ru.w.tenants) // version -> batch id
	for i := range published {
		published[i] = map[uint64]int{}
	}
	for _, r := range ru.recs {
		if !r.traced {
			continue
		}
		end := max(r.acked, r.visible)
		root := t.add(span{Name: "batch", Batch: r.id, Tenant: r.tenant, Start: r.sched, End: end})
		t.add(span{Parent: root, Name: "bench.send_wait", Batch: r.id, Tenant: r.tenant, Start: r.sched, End: r.sent})
		t.add(span{Parent: root, Name: "serve.post", Batch: r.id, Tenant: r.tenant, Start: r.sent, End: r.acked,
			Attrs: map[string]float64{
				"deploy.apply_ms": r.applyMS, "version": float64(r.version), "published": float64(b2i(r.published)),
				"lp_iters": float64(r.lpIters), "stages": float64(len(r.stages)),
			}})
		if r.visible > 0 {
			t.add(span{Parent: root, Name: "watch.http_visible", Batch: r.id, Tenant: r.tenant, Start: r.sched, End: r.visible})
		}
		if r.published {
			published[r.tenant][r.version] = r.id
		}
	}
	for tenant, agg := range ru.aggs {
		for v := range agg {
			a := &agg[v]
			if a.wakes.Load() == 0 {
				continue
			}
			t.add(span{Name: "watch.inproc_fanout", Batch: published[tenant][uint64(v)], Tenant: tenant,
				Start: a.first.Load(), End: a.last.Load(), Attrs: map[string]float64{
					"version": float64(v), "wakes": float64(a.wakes.Load()), "serve.encode_ms": ms(a.encodeNS.Load()),
				}})
		}
	}
	for _, f := range ru.figures {
		root := t.add(span{Name: "experiments", Start: f.startNS, End: f.endNS})
		for _, e := range f.runs {
			t.add(span{Parent: root, Name: "experiments." + e.id, Start: e.startNS, End: e.endNS})
		}
	}
	return t
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
