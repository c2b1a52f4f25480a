package main

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/sweep"
)

// goldenSeed is the seed cmd/tables renders by default; at this seed every
// pass must reproduce the committed golden tables byte for byte.
const (
	goldenSeed = 1998
	goldenPath = "cmd/tables/testdata/tables_seed1998.golden"
)

// tablesWork runs the full Table 1 grid the way cmd/tables does:
// PresetTables → RunCell per cell → RenderTablesFromRecords. One round is
// one full pass; one operation is one sweep cell.
type tablesWork struct {
	seed  int64
	cells []sweep.Cell
	// want is the expected rendering: the golden file at goldenSeed,
	// otherwise the cold set-up pass (so later passes must reproduce it).
	want   string
	golden bool
}

func newTables(seed int64) (*tablesWork, error) {
	w := &tablesWork{seed: seed}
	if seed == goldenSeed {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			return nil, fmt.Errorf("tables: %w", err)
		}
		w.want, w.golden = string(b), true
	}
	return w, nil
}

// tablesRun states the engine parallelism. Experiment cells build their
// machines inside core.Experiment.RunPoint, which has no Workers knob and
// takes GOMAXPROCS; the benchmark pins that to maxProcs = engineWorkers.
var tablesRun = sweep.RunConfig{Workers: engineWorkers}

// setup is one untimed cold pass: what a cmd/tables user pays.
func (w *tablesWork) setup(*tracer) error {
	w.cells = sweep.PresetTables(w.seed)
	recs := make([]sweep.Record, len(w.cells))
	for i, c := range w.cells {
		recs[i] = sweep.RunCell(c, tablesRun)
	}
	out, err := sweep.RenderTablesFromRecords(recs)
	if err != nil {
		return fmt.Errorf("tables: cold pass: %w", err)
	}
	if !w.golden {
		w.want = out
	}
	return nil
}

func (w *tablesWork) round(r *recorder, deep bool) {
	from := len(r.ops)
	recs := make([]sweep.Record, len(w.cells))
	for i, c := range w.cells {
		r.op("sweep.RunCell", func() {
			recs[i] = sweep.RunCell(c, tablesRun)
		}, func() error {
			if recs[i].Status != sweep.StatusOK || !recs[i].Verified {
				return fmt.Errorf("tables: cell %s: %s %s", recs[i].Key, recs[i].Status, recs[i].Error)
			}
			return nil
		})
		if deep {
			w.directPoint(r, c, recs[i])
		}
	}
	s := r.tr.start("sweep.RenderTablesFromRecords")
	out, err := sweep.RenderTablesFromRecords(recs)
	r.tr.stop(s)
	switch {
	case err != nil:
		r.failFrom(from, fmt.Errorf("tables: render: %w", err))
	case out != w.want:
		what := "the cold pass"
		if w.golden {
			what = goldenPath
		}
		r.failFrom(from, fmt.Errorf("tables: pass output differs from %s at byte %d", what, firstDiff(out, w.want)))
	}
}

// directPoint re-measures a cell through core.Experiment.RunPoint, the
// call RunCell wraps, so the traced run can split a cell into the core
// layer and the sweep harness around it. The direct row must agree with
// the cell's record.
func (w *tablesWork) directPoint(r *recorder, c sweep.Cell, rec sweep.Record) {
	e := core.ExperimentByID(c.Exp)
	s := r.tr.start("core." + subTable(c.Exp) + ".RunPoint")
	row, err := e.RunPoint(c.N, c.Seed)
	r.tr.stop(s)
	if err == nil && (row.Measured != rec.Time || row.Bound != rec.Bound || row.Ratio != rec.Ratio) {
		err = fmt.Errorf("row %+v disagrees with record time=%g bound=%g", row, rec.Time, rec.Bound)
	}
	if err != nil {
		r.failFrom(len(r.ops)-1, fmt.Errorf("tables: direct RunPoint of %s: %w", rec.Key, err))
	}
}

func (w *tablesWork) close(*tracer) {}

// subTable maps an experiment ID ("T2.Parity.det") to its Table 1
// sub-table ("T2").
func subTable(id string) string {
	t, _, _ := strings.Cut(id, ".")
	return t
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
