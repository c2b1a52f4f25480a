package sweep

import "math"

// Grid is a declarative sweep: the cartesian product of its axes. Empty
// machine-parameter axes expand to the single zero value ("model
// default"); empty Models/Algs/Ns/Seeds axes make the grid empty, so a
// caller must always say what to run, on what, at which sizes and seeds.
type Grid struct {
	// Models and Algs name registry entries. Unknown or mismatched names
	// still produce cells — they run as reason-coded skip records, so a
	// broad grid stays auditable instead of silently shrinking.
	Models, Algs []string
	// Ns, Ps and Fanins are the int axes (0 = model default).
	Ns, Ps, Fanins []int
	// Gs, Ds, Ls, Alphas, Betas, Gammas are the cost-parameter axes.
	Gs, Ds, Ls, Alphas, Betas, Gammas []int64
	// Seeds drives workloads and fault plans.
	Seeds []int64
	// Faults is the fault-mix axis; empty = one fault-free pass. A ""
	// entry inside a non-empty axis is a fault-free control.
	Faults []string
	// Degraded runs the fault cells in degraded (crash-masking) mode.
	Degraded bool
}

// orInts substitutes the single-default axis for an empty int axis.
func orInts(v []int) []int {
	if len(v) == 0 {
		return []int{0}
	}
	return v
}

// orInt64s substitutes the single-default axis for an empty int64 axis.
func orInt64s(v []int64) []int64 {
	if len(v) == 0 {
		return []int64{0}
	}
	return v
}

// MaxGridCells caps the cells a command-line grid may expand to; the
// caller checks Count against it before Cells materialises the grid.
const MaxGridCells = 1 << 20

// Count returns the number of cells the grid expands to, saturating at
// math.MaxInt instead of overflowing.
func (g Grid) Count() int {
	n := 1
	for _, k := range []int{
		max(len(g.Faults), 1), len(g.Models), len(g.Algs), len(g.Ns), len(g.Seeds),
		len(orInts(g.Ps)), len(orInts(g.Fanins)),
		len(orInt64s(g.Gs)), len(orInt64s(g.Ds)), len(orInt64s(g.Ls)),
		len(orInt64s(g.Alphas)), len(orInt64s(g.Betas)), len(orInt64s(g.Gammas)),
	} {
		if k > 0 && n > math.MaxInt/k {
			n = math.MaxInt
		} else {
			n *= k
		}
	}
	return n
}

// Cells expands the grid in a fixed nesting order (faults, models, algs,
// n, p, g, d, L, α, β, γ, fan-in, seeds — outermost to innermost). The
// order is part of the resume contract: a resumed sweep walks the same
// sequence and appends from where the partial output stops.
func (g Grid) Cells() []Cell {
	faults := g.Faults
	if len(faults) == 0 {
		faults = []string{""}
	}
	out := make([]Cell, 0, g.Count())
	for _, fx := range faults {
		for _, model := range g.Models {
			for _, alg := range g.Algs {
				for _, n := range g.Ns {
					for _, p := range orInts(g.Ps) {
						for _, gg := range orInt64s(g.Gs) {
							for _, dd := range orInt64s(g.Ds) {
								for _, ll := range orInt64s(g.Ls) {
									for _, al := range orInt64s(g.Alphas) {
										for _, be := range orInt64s(g.Betas) {
											for _, ga := range orInt64s(g.Gammas) {
												for _, fi := range orInts(g.Fanins) {
													for _, seed := range g.Seeds {
														out = append(out, Cell{
															Model: model, Alg: alg,
															N: n, P: p,
															G: gg, D: dd, L: ll,
															Alpha: al, Beta: be, Gamma: ga,
															Fanin: fi, Seed: seed,
															Faults:   fx,
															Degraded: g.Degraded && fx != "",
														})
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}
