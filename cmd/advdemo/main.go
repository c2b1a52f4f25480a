// Command advdemo runs the paper's proof machinery live:
//
//   - the Section 5 knowledge ledger (Know / AffProc / AffCell / state
//     degrees) of a real GSM algorithm, computed exactly by exhaustive
//     input enumeration, with the t-goodness thresholds alongside;
//   - the Section 7 OR adversary: the layered H_i mixture, a RANDOMRESTRICT
//     walk, and the Lemma 7.4 line-17 statistics;
//   - the degree anchors of Theorems 3.1/7.2 (deg Parity_n = deg OR_n = n).
//
// Usage:
//
//	advdemo [-n 8] [-trials 2000] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro"
	"repro/internal/adversary"
	"repro/internal/gsm"
	"repro/internal/gsmalg"
)

func main() {
	n := flag.Int("n", 8, "inputs for the knowledge ledger (≤ 12)")
	trials := flag.Int("trials", 2000, "Monte Carlo trials for the OR adversary")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	if err := run(*n, *trials, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "advdemo:", err)
		os.Exit(1)
	}
}

func run(n, trials int, seed int64) error {
	fmt.Println("== Degree anchors (Fact 2.1, Theorems 3.1/7.2) ==")
	for _, k := range []int{2, 4, 8} {
		fmt.Printf("  deg(Parity_%d) = %d   deg(OR_%d) = %d   C(OR_%d) = %d\n",
			k, repro.ParityFn(k).Degree(), k, repro.ORFn(k).Degree(),
			k, repro.ORFn(k).Certificate())
	}

	fmt.Println("\n== Section 5 knowledge ledger: binary merge tree on the GSM ==")
	cells := 2*n + 2
	runner := func(bits []int64) (*gsm.Machine, error) {
		m, err := gsm.New(gsm.Config{P: n, Alpha: 1, Beta: 1, Gamma: 1, N: n, Cells: cells})
		if err != nil {
			return nil, err
		}
		m.EnableTracing()
		if err := m.LoadInputs(bits); err != nil {
			return nil, err
		}
		_, err = gsmalg.GatherTree(m, n, 2)
		return m, err
	}
	a, err := repro.AnalyzeKnowledge(runner, n)
	if err != nil {
		return err
	}
	fmt.Printf("  %6s %10s %10s %12s %12s %10s\n",
		"phase", "max|Know|", "max deg", "max|AffProc|", "max|AffCell|", "d_t bound")
	for t := 0; t < a.Phases; t++ {
		fmt.Printf("  %6d %10d %10d %12d %12d %10.0f\n",
			t, a.MaxKnow[t], a.MaxDegree[t], a.MaxAffProc[t], a.MaxAffCell[t],
			adversary.DT(t+1, 1, 1))
	}
	if v := adversary.CheckTGood(a, 1, 1); len(v) == 0 {
		fmt.Println("  t-goodness: all invariants hold")
	} else {
		fmt.Printf("  t-goodness VIOLATIONS: %+v\n", v)
	}

	fmt.Println("\n== Theorem 3.2 parity adversary (knowledge graph, independent sets) ==")
	rngP := rand.New(rand.NewSource(seed))
	for _, fanin := range []int{2, 4, 8} {
		res, err := adversary.ParityAdversary(rngP, 1<<10, adversary.TreeParityAccess{Fanin: fanin}, float64(fanin), 64)
		if err != nil {
			return err
		}
		fmt.Printf("  fan-in %d tree: adversary keeps >1 unfixed variable for %d phases (|V_t|: ",
			fanin, res.Phases)
		for i, u := range res.Unfixed {
			if i > 0 {
				fmt.Print("→")
			}
			fmt.Print(u)
		}
		fmt.Println(")")
	}

	fmt.Println("\n== Section 7 OR adversary (layered mixture, RANDOMRESTRICT) ==")
	mix, err := adversary.NewORMixture(1<<16, 1)
	if err != nil {
		return err
	}
	fmt.Printf("  groups r = %d, layers = %d, densities:", mix.Groups, mix.Layers())
	for _, d := range mix.D {
		fmt.Printf(" %.3g", d)
	}
	fmt.Println()
	rng := rand.New(rand.NewSource(seed))
	line17, early, stepsSum := 0, 0, 0
	for k := 0; k < trials; k++ {
		res, err := adversary.ORRefine(rng, mix, quiet{}, 1, 1, 64)
		if err != nil {
			return err
		}
		if res.Line17 {
			line17++
		}
		if res.FixedEarly {
			early++
		}
		stepsSum += res.Steps
	}
	fmt.Printf("  %d trials: avg steps %.2f, line-17 rate %.3f (Lemma 7.4 bound %.3f), early fixes %d\n",
		trials, float64(stepsSum)/float64(trials),
		float64(line17)/float64(trials),
		2*float64(mix.Layers())/float64(adversary.LogStarBase(2, float64(mix.Groups))),
		early)
	return nil
}

// quiet is an oblivious low-traffic access profile: the adversary can never
// cash in an early fix against it.
type quiet struct{}

func (quiet) MaxRWP(int, *adversary.LayerSet) float64    { return 1 }
func (quiet) MaxAccess(int, *adversary.LayerSet) float64 { return 2 }
