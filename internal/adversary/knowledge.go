package adversary

import (
	"fmt"

	"repro/internal/boolfn"
)

// TraceSource is the recorded trace of one deterministic run: its
// dimensions and canonical keys for Trace(p, t, f) and Trace(c, t, f).
// The trace.Trace every simulator records (QSM, GSM and BSP) implements
// it.
type TraceSource interface {
	NumPhases() int
	Procs() int
	Cells() int
	ProcKey(p, t int) string
	CellKey(c, t int) string
}

// Runner executes the algorithm under analysis on the given bit vector
// with tracing enabled and returns the trace. It must be deterministic:
// the trace may depend only on the input bits.
type Runner func(bits []int64) (TraceSource, error)

// Analysis holds the exact Section 5 knowledge quantities of an algorithm,
// computed by running it on all 2^n inputs.
type Analysis struct {
	// N is the number of inputs, Procs/Cells the machine dimensions,
	// Phases the number of phases of the longest run.
	N, Procs, Cells, Phases int

	// MaxStates[t] = max over entities v of |States(v, t, f_*)|.
	MaxStates []int
	// MaxKnow[t] = max over entities v of |Know(v, t, f_*)|.
	MaxKnow []int
	// MaxAffProc[t] = max over inputs i of |AffProc(i, t, f_*)|; similarly
	// MaxAffCell.
	MaxAffProc []int
	MaxAffCell []int
	// MaxDegree[t] = max over entities v and traces x of
	// deg(χ_{S(v,t,f_*,x)}) — the quantity the degree bounds of Lemma 5.1
	// control.
	MaxDegree []int

	// KnowProc[t][p] is |Know(p, t, f_*)| per processor; KnowCell likewise.
	KnowProc [][]int
	KnowCell [][]int
}

// AnalyzeKnowledge runs the algorithm on every input of length n (n ≤ 16)
// and computes the exact trace-equivalence quantities of Section 5 for the
// empty partial input map f_*. The machine dimensions come from the
// traces, and every run must have the first run's shape.
func AnalyzeKnowledge(runner Runner, n int) (*Analysis, error) {
	if n < 1 || n > 16 {
		return nil, fmt.Errorf("adversary: exhaustive analysis needs 1 ≤ n ≤ 16, got %d", n)
	}
	total := 1 << uint(n)

	// traces[mask] = the trace log of the run on that input.
	traces := make([]TraceSource, total)
	phases, procs, cells := 0, 0, 0
	for mask := 0; mask < total; mask++ {
		bits := make([]int64, n)
		for i := 0; i < n; i++ {
			bits[i] = int64(mask >> uint(i) & 1)
		}
		tr, err := runner(bits)
		if err != nil {
			return nil, fmt.Errorf("adversary: run on input %b: %w", mask, err)
		}
		if tr == nil {
			return nil, fmt.Errorf("adversary: runner must enable tracing")
		}
		if mask == 0 {
			procs, cells = tr.Procs(), tr.Cells()
		} else if tr.Procs() != procs || tr.Cells() != cells {
			return nil, fmt.Errorf("adversary: run on input %b has %d procs and %d cells, the first run %d and %d",
				mask, tr.Procs(), tr.Cells(), procs, cells)
		}
		if tr.NumPhases() > phases {
			phases = tr.NumPhases()
		}
		traces[mask] = tr
	}

	a := &Analysis{
		N: n, Procs: procs, Cells: cells, Phases: phases,
		MaxStates:  make([]int, phases),
		MaxKnow:    make([]int, phases),
		MaxAffProc: make([]int, phases),
		MaxAffCell: make([]int, phases),
		MaxDegree:  make([]int, phases),
		KnowProc:   make([][]int, phases),
		KnowCell:   make([][]int, phases),
	}

	// key(v-kind, v, t, mask) enumerations.
	for t := 0; t < phases; t++ {
		a.KnowProc[t] = make([]int, procs)
		a.KnowCell[t] = make([]int, cells)
		affProc := make([]int, n)
		affCell := make([]int, n)

		analyzeEntity := func(keyFor func(mask int) string, isProc bool, v int) {
			keys := make([]string, total)
			distinct := map[string][]uint32{}
			for mask := 0; mask < total; mask++ {
				k := keyFor(mask)
				keys[mask] = k
				distinct[k] = append(distinct[k], uint32(mask))
			}
			if len(distinct) > a.MaxStates[t] {
				a.MaxStates[t] = len(distinct)
			}
			// Know(v, t, f_*) = inputs whose flip can change the trace.
			know := 0
			for i := 0; i < n; i++ {
				affects := false
				for mask := 0; mask < total && !affects; mask++ {
					if keys[mask] != keys[mask^(1<<uint(i))] {
						affects = true
					}
				}
				if affects {
					know++
					if isProc {
						affProc[i]++
					} else {
						affCell[i]++
					}
				}
			}
			if know > a.MaxKnow[t] {
				a.MaxKnow[t] = know
			}
			if isProc {
				a.KnowProc[t][v] = know
			} else {
				a.KnowCell[t][v] = know
			}
			// Degrees of the state indicator functions.
			//lint:maporder-ok max over the indicator degrees is order-independent
			for _, members := range distinct {
				chi := boolfn.Indicator(n, members)
				if d := chi.Degree(); d > a.MaxDegree[t] {
					a.MaxDegree[t] = d
				}
			}
		}

		for p := 0; p < procs; p++ {
			p := p
			analyzeEntity(func(mask int) string {
				return traces[mask].ProcKey(p, t)
			}, true, p)
		}
		for c := 0; c < cells; c++ {
			c := c
			analyzeEntity(func(mask int) string {
				return traces[mask].CellKey(c, t)
			}, false, c)
		}

		for i := 0; i < n; i++ {
			if affProc[i] > a.MaxAffProc[t] {
				a.MaxAffProc[t] = affProc[i]
			}
			if affCell[i] > a.MaxAffCell[t] {
				a.MaxAffCell[t] = affCell[i]
			}
		}
	}
	return a, nil
}

// DT returns the Section 5 degree threshold d_t = ν(μ+1)^{2t}.
func DT(t int, nu, mu float64) float64 {
	return nu * pow(mu+1, 2*t)
}

// KT returns the Section 5 cardinality threshold k_t = 2^{ν(μ+1)^{4(t+1)}}.
// It is astronomically large even for tiny parameters; CheckTGood therefore
// caps it at 2^62 when comparing against measured (finite) quantities.
func KT(t int, nu, mu float64) float64 {
	e := nu * pow(mu+1, 4*(t+1))
	if e > 62 {
		return float64(uint64(1) << 62)
	}
	return pow(2, int(e))
}

// TGoodViolation describes a failed t-goodness condition.
type TGoodViolation struct {
	Phase    int
	Quantity string
	Measured float64
	Bound    float64
}

// CheckTGood verifies the five t-goodness conditions of Section 5 against
// the measured quantities of an analysis, for the GSM parameters (ν = γρ,
// μ). It returns every violation (none for algorithms within the paper's
// regime).
func CheckTGood(a *Analysis, nu, mu float64) []TGoodViolation {
	var out []TGoodViolation
	for t := 0; t < a.Phases; t++ {
		// The proofs index goodness by elapsed big-steps; phases are a
		// conservative stand-in (each phase is ≥ 1 big-step).
		checks := []struct {
			name     string
			measured float64
			bound    float64
		}{
			{"deg(States)", float64(a.MaxDegree[t]), DT(t+1, nu, mu)},
			{"|States|", float64(a.MaxStates[t]), KT(t+1, nu, mu)},
			{"|Know|", float64(a.MaxKnow[t]), KT(t+1, nu, mu)},
			{"|AffProc|", float64(a.MaxAffProc[t]), KT(t+1, nu, mu)},
			{"|AffCell|", float64(a.MaxAffCell[t]), KT(t+1, nu, mu)},
		}
		for _, c := range checks {
			if c.measured > c.bound {
				out = append(out, TGoodViolation{
					Phase: t, Quantity: c.name, Measured: c.measured, Bound: c.bound,
				})
			}
		}
	}
	return out
}

func pow(b float64, e int) float64 {
	r := 1.0
	for i := 0; i < e; i++ {
		r *= b
		if r > 1e300 {
			return 1e300
		}
	}
	return r
}
