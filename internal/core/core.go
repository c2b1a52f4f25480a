// Package core is the experiment engine of the reproduction: it wires the
// Section 8 upper-bound algorithms (running on the cost simulators) to the
// Table 1 bound formulas, sweeps input sizes, and renders the
// measured-vs-predicted tables that stand in for the paper's evaluation.
//
// For a Θ (tight) row, the measured model time divided by the bound
// formula must stay within a constant band across the sweep (RatioSpread
// close to 1). For an Ω row, the bound is a floor: the measured cost of
// the best known algorithm sits above it and the ratio may drift upward —
// the gap the paper leaves open.
package core

import (
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/cost"
)

// Experiment binds one Table 1 row to a registry point.
type Experiment struct {
	// ID matches the bounds registry entry that predicts this row.
	ID string
	// Title is a human-readable row label.
	Title string
	// Quantity is "time" (model time units) or "rounds" (phase count of a
	// computing-in-rounds algorithm).
	Quantity string
	// Ns is the sweep of input sizes.
	Ns []int
	// At is the registry point the row measures, without its size: Point
	// sets N = n, P = n/PDiv (PDiv 0 = p = n) and the seed. The bound is
	// evaluated at the same point, so it cannot drift from the machine.
	At   Point
	PDiv int
	// Algorithm names the §8 algorithm being measured.
	Algorithm string
}

// Point is the registry point the experiment runs at size n.
func (e *Experiment) Point(n int, seed int64) Point {
	pt := e.At
	pt.N, pt.P, pt.Seed = n, n/max(e.PDiv, 1), seed
	return pt
}

// Row is one sweep point of a completed experiment.
type Row struct {
	N        int
	Bound    float64
	Upper    float64
	Measured float64
	// Ratio is Measured/Bound.
	Ratio float64
	// AllRounds reports whether every phase of the run met the round
	// budget (only meaningful for rounds experiments).
	AllRounds bool
}

// Result is a completed experiment.
type Result struct {
	Exp   *Experiment
	Entry *bounds.Entry
	Rows  []Row
	// RatioSpread is max(Ratio)/min(Ratio) across the sweep: ≈ 1 means the
	// measured quantity tracks the bound's shape exactly.
	RatioSpread float64
}

// RunPoint executes one sweep point of the experiment: it runs the
// registry point at size n, evaluates the bound formulas at the same
// machine parameters, and returns the completed row. A rounds row fails
// when any phase breaks the round budget. The sweep harness
// (internal/sweep) runs experiments one point at a time through this so
// that resumed sweeps re-run only the missing points.
func (e *Experiment) RunPoint(n int, seed int64) (Row, error) {
	entry := bounds.ByID(e.ID)
	if entry == nil {
		return Row{}, fmt.Errorf("core: experiment %q has no bounds entry", e.ID)
	}
	pt := e.Point(n, seed)
	rep, err := measure(pt)
	if err == nil && e.Quantity == "rounds" && !rep.AllRounds {
		err = fmt.Errorf("%s broke the round budget", pt.Alg)
	}
	if err != nil {
		return Row{}, fmt.Errorf("core: %s at n=%d: %w", e.ID, n, err)
	}
	a := pt.boundArgs()
	row := Row{N: n, Bound: entry.Eval(a), Measured: float64(rep.TotalTime), AllRounds: rep.AllRounds}
	if e.Quantity == "rounds" {
		row.Measured = float64(rep.NumPhases())
	}
	if entry.Upper != nil {
		row.Upper = entry.Upper(a)
	}
	if row.Bound > 0 {
		row.Ratio = row.Measured / row.Bound
	}
	return row, nil
}

// boundArgs are the point's parameters as the bound formulas read them.
func (pt Point) boundArgs() bounds.Args {
	return bounds.Args{N: pt.N, P: pt.P, G: pt.G, L: pt.L}
}

// measure executes a registry point and fails unless the answer passes
// the host-side oracle.
func measure(pt Point) (*cost.Report, error) {
	out, err := Execute(pt, false, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	if !out.Verified {
		return nil, fmt.Errorf("core: %s on %s at n=%d: answer failed the host-side oracle", pt.Alg, pt.Model, pt.N)
	}
	return out.Report, nil
}

// Assemble builds a Result from rows computed elsewhere (RunPoint calls
// recorded by a sweep, possibly across several harness invocations) and
// derives the ratio spread exactly as Run does.
func Assemble(e *Experiment, rows []Row) (*Result, error) {
	entry := bounds.ByID(e.ID)
	if entry == nil {
		return nil, fmt.Errorf("core: experiment %q has no bounds entry", e.ID)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("core: experiment %q has an empty sweep", e.ID)
	}
	res := &Result{Exp: e, Entry: entry, Rows: rows}
	minR, maxR := math.MaxFloat64, 0.0
	for _, row := range rows {
		if row.Bound > 0 {
			if row.Ratio < minR {
				minR = row.Ratio
			}
			if row.Ratio > maxR {
				maxR = row.Ratio
			}
		}
	}
	if minR > 0 && minR != math.MaxFloat64 {
		res.RatioSpread = maxR / minR
	}
	return res, nil
}

// Run executes the sweep.
func (e *Experiment) Run(seed int64) (*Result, error) {
	if entry := bounds.ByID(e.ID); entry == nil {
		return nil, fmt.Errorf("core: experiment %q has no bounds entry", e.ID)
	}
	if len(e.Ns) == 0 {
		return nil, fmt.Errorf("core: experiment %q has an empty sweep", e.ID)
	}
	rows := make([]Row, 0, len(e.Ns))
	for _, n := range e.Ns {
		row, err := e.RunPoint(n, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return Assemble(e, rows)
}

// Tight reports whether the result empirically supports a Θ claim: the
// ratio band stays within the given spread.
func (r *Result) Tight(maxSpread float64) bool {
	return r.RatioSpread > 0 && r.RatioSpread <= maxSpread
}

// DominatesBound reports whether every measured point sits at or above
// slack·bound — the Ω direction (the lower bound really is below the
// algorithm's cost).
func (r *Result) DominatesBound(slack float64) bool {
	for _, row := range r.Rows {
		if row.Measured < slack*row.Bound {
			return false
		}
	}
	return true
}
