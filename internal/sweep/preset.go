package sweep

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
)

// PresetTables expands the cmd/tables grid: every registered Table 1
// experiment at each of its sweep sizes, in registry order. Running
// these cells and feeding the records to RenderTablesFromRecords
// reproduces RenderAll's output byte-identically.
func PresetTables(seed int64) []Cell {
	var cells []Cell
	for _, e := range core.Experiments() {
		for _, n := range e.Ns {
			cells = append(cells, Cell{Exp: e.ID, N: n, Seed: seed})
		}
	}
	return cells
}

// RenderTablesFromRecords reassembles experiment records (from this run
// or a resumed JSONL) into the four Table 1 sub-tables. Every experiment
// cell must have completed: a skipped or failed cell is an error, same
// as RenderAll aborting on a failed row.
func RenderTablesFromRecords(records []Record) (string, error) {
	rows := make(map[string][]core.Row)
	for _, r := range records {
		if r.Exp == "" {
			continue
		}
		switch r.Status {
		case StatusOK:
		case StatusSkipped:
			return "", fmt.Errorf("sweep: experiment cell %s was skipped (%s)", r.Key, r.Reason)
		default:
			return "", fmt.Errorf("sweep: experiment cell %s failed: %s", r.Key, r.Error)
		}
		rows[r.Exp] = append(rows[r.Exp], core.Row{
			N: r.N, Bound: r.Bound, Upper: r.Upper,
			Measured: r.Time, Ratio: r.Ratio, AllRounds: r.AllRounds,
		})
	}
	if len(rows) == 0 {
		return "", fmt.Errorf("sweep: no experiment records to render")
	}
	results := make(map[string]*core.Result)
	for _, e := range core.Experiments() {
		if len(rows[e.ID]) == 0 {
			continue
		}
		res, err := core.Assemble(e, rows[e.ID])
		if err != nil {
			return "", err
		}
		results[e.ID] = res
	}
	return core.RenderResults(results), nil
}

// PresetChaos expands the standard chaos matrix (mixes × models ×
// per-family algorithms × seeds) as fault cells, in exactly the order
// chaos.Scenarios walks, so the generic runner reproduces the historical
// `parsim chaos` sweep — same runs, same counts, same summary.
func PresetChaos(seeds []int64, n int, degraded bool) []Cell {
	var cells []Cell
	for _, mx := range chaos.StandardMixes() {
		for _, model := range chaos.Models {
			deg := (mx.Degraded || degraded) && model != "bsp" && model != "gsm"
			for _, alg := range chaos.AlgsFor(model) {
				for _, seed := range seeds {
					cells = append(cells, Cell{
						Model: model, Alg: alg, N: n, Seed: seed,
						Faults: mx.Specs, Degraded: deg,
					})
				}
			}
		}
	}
	return cells
}

// PresetSmoke is the CI smoke grid: the full model × algorithm cross
// product at one small size (the cross-family combinations become the
// skip records that keep the reason codes exercised), a fault cell per
// machine family, and one experiment cell.
func PresetSmoke() []Cell {
	cells := Grid{
		Models: core.ModelNames(),
		Algs:   core.AlgNames(),
		Ns:     []int{64},
		Seeds:  []int64{1},
	}.Cells()
	return append(cells,
		Cell{Model: "qsm", Alg: "parity", N: 32, Seed: 1, Faults: "mem~0.05"},
		Cell{Model: "crqw", Alg: "or-contention", N: 32, Seed: 1, Faults: "crash@2:p1", Degraded: true},
		Cell{Model: "bsp", Alg: "bsp-parity", N: 32, Seed: 1, Faults: "drop~0.1,dup~0.1"},
		Cell{Model: "gsm", Alg: "gsm-or", N: 32, Seed: 1, Faults: "mem@1"},
		Cell{Model: "qsmgd", Alg: "parity", N: 32, Seed: 1, Faults: "mem~0.05"}, // → invalid-combo
		Cell{Exp: "T2.Parity.det", N: 256, Seed: 1998},
	)
}
