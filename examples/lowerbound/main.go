// Lowerbound: watch the degree argument of Theorems 3.1/7.2 happen on a
// real machine. The polynomial degree of every cell's contents grows by at
// most a constant factor per GSM phase (Lemma 5.1 mechanics), while the
// output must reach degree n — so Ω(log n / log μ) phases are unavoidable.
// This example measures the degrees phase by phase on a live algorithm.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/gsm"
	"repro/internal/gsmalg"
)

func main() {
	const n = 8
	cells := 2*n + 2

	// The algorithm under the microscope: a binary merge tree (the fastest
	// way information can concentrate when each phase allows one read per
	// processor).
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
		log.Fatal(err)
	}

	fmt.Println("Degree growth per phase (exhaustive over all 2^8 inputs):")
	fmt.Printf("  %6s %10s %12s\n", "phase", "max degree", "max |Know|")
	for t := 0; t < a.Phases; t++ {
		fmt.Printf("  %6d %10d %12d\n", t, a.MaxDegree[t], a.MaxKnow[t])
	}

	fmt.Println("\nWhy that forces the lower bound:")
	fmt.Printf("  deg(Parity_%d) = %d and deg(OR_%d) = %d (full degree, Fact 2.1)\n",
		n, repro.ParityFn(n).Degree(), n, repro.ORFn(n).Degree())
	fmt.Printf("  degrees at most double per phase here, so no algorithm of this\n")
	fmt.Printf("  shape finishes Parity before ⌈log₂ %d⌉ = %d phases — the measured\n",
		n, a.Phases)
	fmt.Printf("  tree used exactly %d.\n", a.Phases)

	// The certificate-complexity link (Fact 2.3) used by Claim 5.2.
	or := repro.ORFn(6)
	d, c := or.Degree(), or.Certificate()
	fmt.Printf("\nFact 2.3 check on OR_6: C(f) = %d ≤ deg(f)^4 = %d\n", c, d*d*d*d)
}
