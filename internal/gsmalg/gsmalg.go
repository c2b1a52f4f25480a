// Package gsmalg implements information-gathering algorithms directly on
// the GSM lower-bound model, so the Section 3/6/7 GSM theorems can be
// checked against matching executions:
//
//   - GatherTree: an α-ary information merge tree. One phase merges α cells
//     per processor into one (a single big-step of μ time), so gathering
//     r = n/γ loaded cells takes ⌈log_α r⌉·μ time when α = μ — the upper
//     bound matching the Θ shape of Theorem 3.1's
//     Ω(μ·log(n/γ)/log μ). Because GSM computation is free, a processor
//     holding all input atoms answers Parity and OR alike; the gathering
//     time is the lower-bounded quantity.
//   - RelaxedRoundGSM: the GSM(h) round accounting of Section 6.3 (a round
//     is a phase of time O(μh/λ) regardless of p), with a compaction tree
//     measured in relaxed rounds against Theorem 6.3's
//     Ω(√(log(n/(dγ))/log(μh/λ))) and the plain tree against its
//     log(n/γ)/log(μh/λ) information ceiling.
package gsmalg

import (
	"fmt"
	"math/bits"

	"repro/internal/cost"
	"repro/internal/gsm"
)

// GatherTree merges the information of the first r cells of the machine
// into a single output cell using fan-in `fanin` reads per processor per
// phase, and returns the output cell's address. With fanin = α each phase
// is exactly one big-step.
func GatherTree(m *gsm.Machine, r, fanin int) (int, error) {
	if r < 1 {
		return 0, fmt.Errorf("gsmalg: r must be ≥ 1, got %d", r)
	}
	if fanin < 2 {
		return 0, fmt.Errorf("gsmalg: fan-in must be ≥ 2, got %d", fanin)
	}
	cur, width := 0, r
	next := r
	for width > 1 {
		nw := (width + fanin - 1) / fanin
		curL, widthL, nextL := cur, width, next
		m.ForAll(nw, func(c *gsm.Ctx) {
			for j := c.Proc(); j < nw; j += m.P() {
				// A node's children are contiguous: one block read per
				// node, then the free local merge.
				cnt := min(fanin, widthL-j*fanin)
				var acc gsm.Info
				for _, in := range c.ReadBlock(curL+j*fanin, cnt) {
					acc = acc.Merge(in)
				}
				c.Write(nextL+j, acc)
			}
		})
		cur, width, next = next, nw, next+nw
		if m.Err() != nil {
			return 0, m.Err()
		}
	}
	return cur, m.Err()
}

// CellsNeedGather returns the number of cells GatherTree needs for r
// loaded cells at any fan-in ≥ 2: the r inputs plus every tree level.
// At fan-in 2 the levels hold r−1 cells plus one per level of odd width,
// and there are at most bits.Len(r) levels; a wider fan-in needs fewer.
func CellsNeedGather(r int) int { return 2*r + bits.Len(uint(r)) }

// ParityGSM computes the parity of the n inputs loaded with
// Machine.LoadInputs (γ per cell): it gathers all information and decodes
// the answer from the output cell's atoms. Local computation is free on
// the GSM, so the gathering time is the whole cost.
func ParityGSM(m *gsm.Machine, n int, fanin int) (int64, error) {
	r := (n + int(m.Gamma()) - 1) / int(m.Gamma())
	out, err := GatherTree(m, r, fanin)
	if err != nil {
		return 0, err
	}
	info := m.Peek(out)
	if len(info) != n {
		return 0, fmt.Errorf("gsmalg: output cell holds %d atoms, want %d", len(info), n)
	}
	var par int64
	for _, a := range info {
		_, v := gsm.AtomInput(a)
		par ^= v & 1
	}
	return par, nil
}

// ORGSM computes the OR of the loaded inputs by the same gather.
func ORGSM(m *gsm.Machine, n int, fanin int) (int64, error) {
	r := (n + int(m.Gamma()) - 1) / int(m.Gamma())
	out, err := GatherTree(m, r, fanin)
	if err != nil {
		return 0, err
	}
	for _, a := range m.Peek(out) {
		if _, v := gsm.AtomInput(a); v != 0 {
			return 1, nil
		}
	}
	return 0, nil
}

// RelaxedRounds classifies the phases of a finished GSM run under the
// Section 6.3 GSM(h) round definition: a phase is a round iff its time is
// ≤ slack·μh/λ, independent of the processor count. It returns the number
// of conforming phases and whether all conformed.
func RelaxedRounds(rep *cost.Report, h int64, slack int64) (rounds int, all bool) {
	mu := rep.Params.Mu()
	lam := rep.Params.Lambda()
	if lam < 1 {
		lam = 1
	}
	budget := cost.Time(slack * mu * h / lam)
	if budget < 1 {
		budget = 1
	}
	all = true
	for _, ph := range rep.Phases {
		if ph.Time <= budget {
			rounds++
		} else {
			all = false
		}
	}
	return rounds, all
}
