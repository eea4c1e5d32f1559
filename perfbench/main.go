// Command perfbench is the repository's benchmark. It runs quorumd's
// serving stack in-process — topology, plan.New, deploy.New or
// deploy.Recover, serve.Registry behind a loopback HTTP listener — and
// drives it with one in-order delta sender, one HTTP long-poll watcher
// and many in-process watchers, and regenerates the paper's figures at
// quick scale between the traffic.
// It checks every output and prints one JSON result line.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload probe-rtt --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload demand-fanout --seed 1 --seconds 20 --trace 1
//	bash perfbench/run.sh compare --base runs/parent --head runs/change
//
// With --trace 0 the result holds the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it holds the per-layer metrics and the
// spans go to .bench_build/traces/. --out also stores the result with
// its workload and seed, as compare reads it.
//
// The figures in BENCH_plan.json and BENCH_serve.json (quorumbench
// -bench-out and -bench-serve) call the planner and the serving layer
// directly and bypass this path; they are not comparable with these.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runRecord is one result with what produced it: the input of compare.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: probe-rtt, demand-fanout or durable-capacity")
	seed := fs.Int64("seed", 1, "seed of the generated deltas")
	seconds := fs.Float64("seconds", 20, "length of the open-loop phase")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", "", "also write the result, with its workload and seed, to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	ru, err := runWorkload(&w, *seed, *seconds, *trace == 1, dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for i, p := range ru.tally.problems {
		if i == 20 {
			fmt.Fprintf(stderr, "perfbench: ... %d more problems\n", len(ru.tally.problems)-i)
			break
		}
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if ru.spans != nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = ru.spans.write(path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans in %s\n", len(ru.spans.spans), path)
	}
	metrics, err := ru.metrics()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res := result{
		Correct:   ru.tally.failed == 0,
		Attempted: ru.tally.attempted,
		Failed:    ru.tally.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		rec, err := json.Marshal(runRecord{Workload: w.name, Seed: *seed, Trace: *trace, Result: res})
		if err == nil {
			err = os.WriteFile(*out, append(rec, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
