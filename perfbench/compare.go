package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// verdict is compare's judgement of one (metric, workload).
type verdict struct {
	label          string // better, worse, same or unresolved
	baseMed, hdMed float64
	wins, pairs    int
}

// judge applies the paired-runs rule to one metric. base and head map
// seed to value; runs of one seed on both sides form a pair. A gain
// needs the change to win at least nine tenths of the pairs and to move
// the median by more than the parent's interquartile range. A metric
// with a bound is worse when its median moved the wrong way by more
// than bound × the parent's median, and unresolved when the parent's
// own spread exceeds the bound — unless every run of the change beats
// every run of the parent. A metric without a bound is judged by the
// paired rule alone, in both directions.
func judge(base, head map[int64]float64, lowerBetter bool, bound float64) verdict {
	bv, hv := values(base), values(head)
	q1, bmed, q3 := quartiles(bv)
	v := verdict{baseMed: bmed, hdMed: median(hv)}
	gain := func(h, b float64) float64 {
		if lowerBetter {
			return b - h
		}
		return h - b
	}
	losses := 0
	for seed, b := range base {
		h, ok := head[seed]
		if !ok {
			continue
		}
		v.pairs++
		switch g := gain(h, b); {
		case g > 0:
			v.wins++
		case g < 0:
			losses++
		}
	}
	iqr, moved := q3-q1, gain(v.hdMed, bmed)
	switch {
	case len(bv) == 0 || len(hv) == 0:
		v.label = "unresolved"
	case v.pairs > 0 && 10*v.wins >= 9*v.pairs && moved > iqr:
		v.label = "better"
	case math.IsNaN(bound):
		switch {
		case v.pairs > 0 && 10*losses >= 9*v.pairs && -moved > iqr:
			v.label = "worse"
		case moved == 0:
			v.label = "same"
		default:
			v.label = "unresolved"
		}
	case iqr > bound*math.Abs(bmed) && !allBetter(bv, hv, lowerBetter):
		v.label = "unresolved"
	case -moved > bound*math.Abs(bmed):
		v.label = "worse"
	default:
		v.label = "same"
	}
	return v
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, x := range m {
		out = append(out, x)
	}
	return out
}

// allBetter reports whether every head value beats every base value.
func allBetter(base, head []float64, lowerBetter bool) bool {
	if lowerBetter {
		return slices.Max(head) < slices.Min(base)
	}
	return slices.Min(head) > slices.Max(base)
}

// checksFailed reports why the change's runs of one workload fail their
// checks where the parent's did not: a run whose outputs were wrong, or
// more failed operations in total than the parent's runs had. It
// returns "" when they do not.
func checksFailed(base, head []runRecord) string {
	failed := func(rs []runRecord) (n, wrong int) {
		for _, r := range rs {
			n += r.Result.Failed
			if !r.Result.Correct {
				wrong++
			}
		}
		return n, wrong
	}
	bf, _ := failed(base)
	hf, wrong := failed(head)
	switch {
	case wrong > 0:
		return fmt.Sprintf("%d of %d head runs not correct", wrong, len(head))
	case hf > bf:
		return fmt.Sprintf("head failed %d operations, base %d", hf, bf)
	}
	return ""
}

// runCompare reads two directories of --out records and prints a
// verdict for every (metric, workload) both sides measured. It exits 1
// when an end-to-end metric got worse or the change's runs of a
// workload fail their checks; no metric of such a workload is better.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics and bounds")
	baseDir := fs.String("base", "", "directory of the parent's result records")
	headDir := fs.String("head", "", "directory of the change's result records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	base, err := loadRecords(*baseDir)
	if err == nil {
		var head map[string][]runRecord
		if head, err = loadRecords(*headDir); err == nil {
			return printVerdicts(stdout, spec, base, head)
		}
	}
	fmt.Fprintln(stderr, "perfbench compare:", err)
	return 2
}

func printVerdicts(stdout io.Writer, spec benchSpec, base, head map[string][]runRecord) int {
	code := 0
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(stdout, "%-18s %-34s %14s %14s %9s  %s\n", "workload", "metric", "base median", "head median", "wins", "verdict")
	for _, key := range keys {
		hs, ok := head[key]
		if !ok {
			continue
		}
		bs := base[key]
		broken := checksFailed(bs, hs)
		if broken != "" {
			fmt.Fprintf(stdout, "%-18s checks failed: %s\n", bs[0].Workload, broken)
			code = 1
		}
		metrics := spec.EndToEnd
		if bs[0].Trace == 1 {
			metrics = spec.PerLayer
		}
		for _, m := range metrics {
			bv, hv := byMetric(bs, m.Name), byMetric(hs, m.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			bound := math.NaN()
			if m.Bound != nil {
				bound = *m.Bound
			}
			v := judge(bv, hv, m.Better == "lower", bound)
			if broken != "" && v.label == "better" {
				v.label = "unresolved"
			}
			fmt.Fprintf(stdout, "%-18s %-34s %14.6g %14.6g %4d/%-4d  %s\n",
				bs[0].Workload, m.Name, v.baseMed, v.hdMed, v.wins, v.pairs, v.label)
			if v.label == "worse" && m.Bound != nil {
				code = 1
			}
		}
	}
	return code
}

func byMetric(rs []runRecord, name string) map[int64]float64 {
	out := map[int64]float64{}
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out[r.Seed] = m.Value
		}
	}
	return out
}

// loadRecords reads every *.json record in dir, grouped by workload and
// trace mode.
func loadRecords(dir string) (map[string][]runRecord, error) {
	if dir == "" {
		return nil, fmt.Errorf("want -base and -head directories")
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no *.json records in %s", dir)
	}
	out := map[string][]runRecord{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runRecord
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		key := fmt.Sprintf("%s/trace%d", r.Workload, r.Trace)
		out[key] = append(out[key], r)
	}
	return out, nil
}
