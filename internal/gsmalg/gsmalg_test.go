package gsmalg

import (
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/gsm"
	"repro/internal/workload"
)

func machineFor(t *testing.T, n int, alpha, beta, gamma int64, bits []int64) *gsm.Machine {
	t.Helper()
	r := (n + int(gamma) - 1) / int(gamma)
	m, err := gsm.New(gsm.Config{
		P: r, Alpha: alpha, Beta: beta, Gamma: gamma, N: n,
		Cells: CellsNeedGather(r),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadInputs(bits); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParityGSM(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 100} {
		for _, gamma := range []int64{1, 2, 4} {
			for _, fanin := range []int{2, 4} {
				bits := workload.Bits(int64(n)+gamma, n)
				m := machineFor(t, n, 1, 1, gamma, bits)
				got, err := ParityGSM(m, n, fanin)
				if err != nil {
					t.Fatalf("n=%d γ=%d fanin=%d: %v", n, gamma, fanin, err)
				}
				if want := workload.Parity(bits); got != want {
					t.Fatalf("n=%d γ=%d: parity = %d, want %d", n, gamma, got, want)
				}
			}
		}
	}
}

func TestORGSM(t *testing.T) {
	for _, bits := range [][]int64{
		workload.ZeroBits(32), workload.OneHot(3, 32), workload.Bits(4, 63),
	} {
		m := machineFor(t, len(bits), 2, 2, 1, bits)
		got, err := ORGSM(m, len(bits), 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := workload.Or(bits); got != want {
			t.Fatalf("OR = %d, want %d", got, want)
		}
	}
}

// TestGatherFitsCellsNeedGather is a regression test: the bound was
// 2r+2, which rounding overran whenever it added a tree level (r = 17
// needs 37 cells at fan-in 2), so the gather wrote past the last cell.
func TestGatherFitsCellsNeedGather(t *testing.T) {
	for r := 1; r <= 1024; r++ {
		for fanin := 2; fanin <= 5; fanin++ {
			m, err := gsm.New(gsm.Config{P: r, Alpha: 2, Beta: 2, Gamma: 1, N: r, Cells: CellsNeedGather(r), Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.LoadInputs(workload.ZeroBits(r)); err != nil {
				t.Fatal(err)
			}
			if _, err := GatherTree(m, r, fanin); err != nil {
				t.Fatalf("r=%d fan-in %d in %d cells: %v", r, fanin, CellsNeedGather(r), err)
			}
		}
	}
}

func TestGatherTreeValidation(t *testing.T) {
	m := machineFor(t, 4, 1, 1, 1, workload.ZeroBits(4))
	if _, err := GatherTree(m, 0, 2); err == nil {
		t.Error("want r error")
	}
	if _, err := GatherTree(m, 4, 1); err == nil {
		t.Error("want fan-in error")
	}
}

// Theorem 3.1 upper-bound side: with fan-in α = μ, the gather takes
// ⌈log_α r⌉ phases of one μ-big-step each, i.e. μ·log r/log μ time — the
// measured cost must match the bound formula within a small constant.
func TestGatherMatchesTheorem31Shape(t *testing.T) {
	for _, alpha := range []int64{2, 4, 8} {
		n := 1 << 12
		bits := workload.Bits(9, n)
		m := machineFor(t, n, alpha, alpha, 1, bits)
		if _, err := ParityGSM(m, n, int(alpha)); err != nil {
			t.Fatal(err)
		}
		measured := float64(m.Report().TotalTime)
		bound := bounds.GSMParityDet(bounds.GSMArgs{N: n, Alpha: alpha, Beta: alpha, Gamma: 1})
		ratio := measured / bound
		if ratio < 0.5 || ratio > 3 {
			t.Errorf("α=%d: measured %v vs Theorem 3.1 bound %v (ratio %v)",
				alpha, measured, bound, ratio)
		}
		// Every phase is exactly one big-step (the fan-in matches α).
		for _, ph := range m.Report().Phases {
			if ph.BigSteps != 1 {
				t.Errorf("α=%d phase %d took %d big-steps, want 1", alpha, ph.Index, ph.BigSteps)
			}
		}
	}
}

// γ reduces the effective problem size to r = n/γ: gathering time shrinks
// accordingly (the log(n/γ) in every GSM bound).
func TestGammaShrinksGatherTime(t *testing.T) {
	n := 1 << 10
	run := func(gamma int64) float64 {
		bits := workload.Bits(5, n)
		m := machineFor(t, n, 2, 2, gamma, bits)
		if _, err := ParityGSM(m, n, 2); err != nil {
			t.Fatal(err)
		}
		return float64(m.Report().TotalTime)
	}
	if t16, t1 := run(16), run(1); t16 >= t1 {
		t.Errorf("γ=16 time %v not below γ=1 time %v", t16, t1)
	}
}

// Section 6.3 relaxed rounds: with fan-in ≈ αh/λ a gather phase costs
// ≈ μh/λ, so every phase is a GSM(h) round and the round count is
// log r / log(αh/λ) — at or above Theorem 6.3's √ lower bound.
func TestRelaxedRoundsGSMh(t *testing.T) {
	n := 1 << 12
	alpha, beta := int64(2), int64(2)
	h := int64(16) // round budget μh/λ = 16
	fanin := int(alpha * h / alpha)
	bits := workload.Bits(13, n)
	m := machineFor(t, n, alpha, beta, 1, bits)
	if _, err := ParityGSM(m, n, fanin); err != nil {
		t.Fatal(err)
	}
	rounds, all := RelaxedRounds(m.Report(), h, 1)
	if !all {
		t.Fatalf("a phase exceeded the GSM(h) budget; rounds=%d of %d",
			rounds, m.Report().NumPhases())
	}
	// Theorem 6.3 lower bound (with d = #items ceiling of the LAC form):
	// the measured round count must dominate it.
	lb := bounds.GSMLACRoundsRelaxed(bounds.GSMArgs{
		N: n, Alpha: alpha, Beta: beta, Gamma: 1, H: h,
	}, 4)
	if float64(rounds) < lb {
		t.Errorf("relaxed rounds %d below Theorem 6.3 bound %v", rounds, lb)
	}
	if math.IsNaN(lb) || lb <= 0 {
		t.Errorf("degenerate bound %v", lb)
	}
}

func TestRelaxedRoundsClassification(t *testing.T) {
	// A run with a huge-contention phase: that phase must not be a round
	// for small h.
	n := 64
	bits := workload.Bits(1, n)
	m := machineFor(t, n, 1, 1, 1, bits)
	// Funnel: all processors write to one cell — κ = 64, time 64·μ.
	vals := make([]gsm.Info, n)
	m.Phase(func(c *gsm.Ctx) { vals[c.Proc()] = c.Read(c.Proc()) })
	m.Phase(func(c *gsm.Ctx) { c.Write(n+c.Proc()-c.Proc(), vals[c.Proc()]) })
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
	rounds, all := RelaxedRounds(m.Report(), 4, 1)
	if all {
		t.Error("κ=64 phase must exceed the h=4 budget")
	}
	if rounds != 1 {
		t.Errorf("rounds = %d, want 1 (only the read phase conforms)", rounds)
	}
}
