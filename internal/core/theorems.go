package core

import (
	"fmt"
	"strings"

	"repro/internal/bounds"
	"repro/internal/gsmalg"
)

// TheoremSweeps renders the GSM-level theorem experiments that feed the
// Table 1 rows (the bounds are proved on the GSM and transferred by
// Claim 2.1): the Theorem 3.1 gather shape across μ and γ, and the
// Theorem 6.3 GSM(h) relaxed-round counts across h.
func TheoremSweeps(seed int64) (string, error) {
	var b strings.Builder

	fmt.Fprintf(&b, "Theorem 3.1 — GSM Parity: measured gather time vs μ·log(n/γ)/log μ\n")
	fmt.Fprintf(&b, "  %8s %6s %6s %14s %14s %8s\n", "n", "μ", "γ", "bound", "measured", "ratio")
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		for _, mu := range []int64{2, 4, 8} {
			for _, gamma := range []int64{1, 4} {
				rep, err := measure(Point{Model: "gsm", Alg: "gsm-parity", N: n,
					Alpha: mu, Beta: mu, Gamma: gamma, Fanin: int(mu), Seed: seed + int64(n)})
				if err != nil {
					return "", err
				}
				bound := bounds.GSMParityDet(bounds.GSMArgs{N: n, Alpha: mu, Beta: mu, Gamma: gamma})
				meas := float64(rep.TotalTime)
				fmt.Fprintf(&b, "  %8d %6d %6d %14.1f %14.1f %8.2f\n",
					n, mu, gamma, bound, meas, meas/bound)
			}
		}
	}

	fmt.Fprintf(&b, "\nTheorem 6.3 — GSM(h) relaxed rounds: gather round count vs √(log(n/dγ)/log(μh/λ))\n")
	fmt.Fprintf(&b, "  %8s %6s %14s %14s\n", "n", "h", "√ lower bound", "measured rounds")
	for _, n := range []int{1 << 10, 1 << 14} {
		for _, h := range []int64{4, 16, 64} {
			alpha := int64(2)
			rep, err := measure(Point{Model: "gsm", Alg: "gsm-parity", N: n,
				Alpha: alpha, Beta: alpha, Gamma: 1, Fanin: int(h), Seed: seed + int64(n) + h})
			if err != nil {
				return "", err
			}
			rounds, all := gsmalg.RelaxedRounds(rep, h, 1)
			if !all {
				return "", fmt.Errorf("core: GSM(h) gather broke the h=%d budget", h)
			}
			lb := bounds.GSMLACRoundsRelaxed(bounds.GSMArgs{
				N: n, Alpha: alpha, Beta: alpha, Gamma: 1, H: h,
			}, 4)
			fmt.Fprintf(&b, "  %8d %6d %14.2f %14d\n", n, h, lb, rounds)
		}
	}
	return b.String(), nil
}
