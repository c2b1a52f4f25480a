package core

import (
	"fmt"
	"strings"

	"repro/internal/bounds"
)

// ParamSweeps renders the bound-parameter sweeps orthogonal to the n
// sweeps of the main tables: the g axis of the QSM/s-QSM rows and the L/g
// axis of the BSP rows — the denominators (log g, log(L/g)) that
// distinguish the models in Table 1.
func ParamSweeps(seed int64) (string, error) {
	var b strings.Builder
	n := 1 << 12

	fmt.Fprintf(&b, "g-sweep at n=%d — s-QSM Parity Θ(g·log n) and QSM OR vs fan-in-g contention tree\n", n)
	fmt.Fprintf(&b, "  %4s %16s %16s %16s %16s\n",
		"g", "sQSM par bound", "sQSM par meas", "QSM OR bound", "QSM OR meas")
	for _, g := range []int64{1, 2, 4, 8, 16, 32} {
		pt := Point{Model: "sqsm", Alg: "parity", N: n, P: n, G: g, Fanin: 2, Seed: seed}
		par, err := measure(pt)
		if err != nil {
			return "", err
		}
		pt.Model, pt.Alg = "qsm", "or-contention"
		or, err := measure(pt)
		if err != nil {
			return "", err
		}
		a := pt.boundArgs()
		fmt.Fprintf(&b, "  %4d %16.1f %16d %16.1f %16d\n",
			g, bounds.SQSMParityDet(a), par.TotalTime, bounds.QSMORDet(a), or.TotalTime)
	}

	fmt.Fprintf(&b, "\nL/g-sweep at n=%d, g=2 — BSP Parity Θ(L·log q/log(L/g))\n", n)
	fmt.Fprintf(&b, "  %4s %6s %16s %16s %10s\n", "L/g", "L", "bound", "measured", "steps")
	for _, lg := range []int64{2, 4, 8, 16, 32} {
		pt := Point{Model: "bsp", Alg: "bsp-parity", N: n, P: n / sweepBSPDiv,
			G: 2, L: 2 * lg, Fanin: int(lg), Seed: seed + lg}
		rep, err := measure(pt)
		if err != nil {
			return "", err
		}
		a := pt.boundArgs()
		fmt.Fprintf(&b, "  %4d %6d %16.1f %16d %10d\n",
			lg, pt.L, bounds.BSPParityDet(a), rep.TotalTime, rep.NumPhases())
	}
	return b.String(), nil
}
