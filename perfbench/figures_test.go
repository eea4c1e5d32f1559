package main

import (
	"strconv"
	"testing"

	"github.com/quorumnet/quorumnet/internal/scenario"
)

// referenceTable returns a deep copy of one reference table.
func referenceTable(t *testing.T, id string) (*scenario.Table, *scenario.Table) {
	t.Helper()
	tables, err := parseTables(referenceQuick)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		if tb.ID == id {
			cp := *tb
			cp.Rows = make([][]string, len(tb.Rows))
			for i, row := range tb.Rows {
				cp.Rows[i] = append([]string(nil), row...)
			}
			return &cp, tb
		}
	}
	t.Fatalf("no reference table %s", id)
	return nil, nil
}

func shiftCell(t *testing.T, tb *scenario.Table, row int, col string, by float64) {
	t.Helper()
	c, err := tb.Col(col)
	if err != nil {
		t.Fatal(err)
	}
	v, err := strconv.ParseFloat(tb.Rows[row][c], 64)
	if err != nil {
		t.Fatal(err)
	}
	tb.Rows[row][c] = strconv.FormatFloat(v+by, 'f', 2, 64)
}

func TestReferencesCoverEveryExperiment(t *testing.T) {
	tables, err := parseTables(referenceQuick)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, tb := range tables {
		ids = append(ids, tb.ID)
	}
	if want := experimentIDs(); len(ids) != len(want) {
		t.Errorf("reference holds %v, want %v", ids, want)
	}
}

func TestCompareTablesAcceptsTabledVertexShifts(t *testing.T) {
	got, want := referenceTable(t, "fig7.6")
	shiftCell(t, got, 3, "response_ms", 4.9)
	shiftCell(t, got, 1, "response_ms", -4.9)
	if p := compareTables([]*scenario.Table{got}, []*scenario.Table{want}); len(p) != 0 {
		t.Fatalf("shifts within 4.94 ms rejected: %v", p)
	}
	got, want = referenceTable(t, "fig8.9")
	shiftCell(t, got, 2, "iter2_net_delay", 7.6)
	if p := compareTables([]*scenario.Table{got}, []*scenario.Table{want}); len(p) != 0 {
		t.Fatalf("fig8.9 shift within 7.66 ms rejected: %v", p)
	}
}

func TestCompareTablesRejectsObjectiveAndLargeShifts(t *testing.T) {
	for _, tc := range []struct {
		id, col string
		by      float64
	}{
		{"fig7.6", "net_delay_ms", 0.01}, // objective column
		{"fig7.7", "net_nonuniform", 0.01},
		{"fig7.6", "response_ms", 5.0}, // beyond the tabled 4.94 ms
		{"fig7.8", "resp_uniform", 0.9},
		{"fig6.3", "response_ms", 0.01}, // no vertex-dependent cells
		{"abl-sweep", "best_response_ms", 0.01},
	} {
		got, want := referenceTable(t, tc.id)
		if _, err := got.Col(tc.col); err != nil {
			t.Errorf("%s: %v", tc.id, err)
			continue
		}
		shiftCell(t, got, 0, tc.col, tc.by)
		if p := compareTables([]*scenario.Table{got}, []*scenario.Table{want}); len(p) == 0 {
			t.Errorf("%s %s moved by %v accepted", tc.id, tc.col, tc.by)
		}
	}
	got, want := referenceTable(t, "fig7.6")
	got.Rows = got.Rows[1:]
	if p := compareTables([]*scenario.Table{got}, []*scenario.Table{want}); len(p) == 0 {
		t.Error("missing row accepted")
	}
	if p := compareTables(nil, []*scenario.Table{want}); len(p) == 0 {
		t.Error("missing table accepted")
	}
}
