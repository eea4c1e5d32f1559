package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"

	"github.com/quorumnet/quorumnet/internal/experiments"
	"github.com/quorumnet/quorumnet/internal/scenario"
)

// The reference tables are the output of
//
//	go run ./cmd/quorumbench -quick -all -format json
//	go run ./cmd/quorumbench -quick -ablations -format json
//
// concatenated, in the default (fast) mode at the default seed.
//
//go:embed reference/figures_quick.json
var referenceQuick []byte

// vertexShift is EXPERIMENTS.md's fast-mode rule for one figure: the
// listed vertex-dependent columns may move by at most maxMS against the
// reference; every other cell, objective columns included, must match.
type vertexShift struct {
	cols  []string
	maxMS float64
}

var vertexShifts = map[string]vertexShift{
	"fig7.6": {[]string{"response_ms"}, 4.94},
	"fig7.7": {[]string{"resp_uniform", "resp_nonuniform"}, 5.42},
	"fig7.8": {[]string{"resp_uniform", "resp_nonuniform"}, 0.85},
	"fig8.9": {[]string{"iter1_net_delay", "iter2_net_delay", "one_to_one"}, 7.66},
}

// figureRun is one regeneration of every figure and ablation.
type figureRun struct {
	startNS, endNS int64
	runs           []experimentRun
	tables         []*scenario.Table
}

type experimentRun struct {
	id             string
	startNS, endNS int64
}

// regenerateFigures runs every figure and then every ablation at quick
// scale, as quorumbench -quick -all and -quick -ablations do, in one
// process.
func regenerateFigures() (*figureRun, error) {
	params := experiments.DefaultParams()
	params.Quick = true
	fr := &figureRun{startNS: now()}
	for _, e := range append(experiments.All(), experiments.Ablations()...) {
		t0 := now()
		tb, err := e.Run(params)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		fr.runs = append(fr.runs, experimentRun{id: e.ID, startNS: t0, endNS: now()})
		fr.tables = append(fr.tables, tb)
	}
	fr.endNS = now()
	return fr, nil
}

// experimentIDs lists every figure and ablation id in run order.
func experimentIDs() []string {
	var ids []string
	for _, e := range append(experiments.All(), experiments.Ablations()...) {
		ids = append(ids, e.ID)
	}
	return ids
}

func parseTables(data []byte) ([]*scenario.Table, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var out []*scenario.Table
	for {
		tb := new(scenario.Table)
		err := dec.Decode(tb)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, tb)
	}
}

// compareTables checks got against want table by table and returns one
// problem per table that breaks the fast-mode rule.
func compareTables(got, want []*scenario.Table) []string {
	byID := make(map[string]*scenario.Table, len(got))
	for _, tb := range got {
		byID[tb.ID] = tb
	}
	var problems []string
	for _, w := range want {
		g, ok := byID[w.ID]
		if !ok {
			problems = append(problems, w.ID+": table missing")
			continue
		}
		if p := compareTable(g, w); p != "" {
			problems = append(problems, w.ID+": "+p)
		}
	}
	return problems
}

func compareTable(got, want *scenario.Table) string {
	if !slices.Equal(got.Columns, want.Columns) {
		return fmt.Sprintf("columns %v, reference %v", got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows, reference %d", len(got.Rows), len(want.Rows))
	}
	shift := vertexShifts[want.ID]
	for r, row := range want.Rows {
		for c, cell := range row {
			g := got.Rows[r][c]
			if g == cell {
				continue
			}
			if slices.Contains(shift.cols, want.Columns[c]) {
				gv, gerr := strconv.ParseFloat(g, 64)
				wv, werr := strconv.ParseFloat(cell, 64)
				if gerr == nil && werr == nil && math.Abs(gv-wv) <= shift.maxMS+1e-9 {
					continue
				}
			}
			return fmt.Sprintf("row %d %s = %s, reference %s", r, want.Columns[c], g, cell)
		}
	}
	return ""
}
