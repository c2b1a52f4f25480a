package adversary

import (
	"strings"
	"testing"

	"repro/internal/gsm"
	"repro/internal/gsmalg"
)

// treeORRunner returns a Runner executing gsmalg's binary
// information-gathering tree on a GSM with n input cells (γ = 1): in each
// level, the owner of each pair merges the two cells' information into a
// fresh cell.
func treeORRunner(n int) Runner {
	return func(bits []int64) (TraceSource, error) {
		// Memory: input cells [0,n), then tree levels; processors: n.
		m, err := gsm.New(gsm.Config{
			P: n, Alpha: 1, Beta: 1, Gamma: 1, N: n, Cells: 2*n + 2,
		})
		if err != nil {
			return nil, err
		}
		m.EnableTracing()
		if err := m.LoadInputs(bits); err != nil {
			return nil, err
		}
		if _, err := gsmalg.GatherTree(m, n, 2); err != nil {
			return nil, err
		}
		return m.TraceLog(), nil
	}
}

func TestAnalyzeKnowledgeTree(t *testing.T) {
	n := 8
	a, err := AnalyzeKnowledge(treeORRunner(n), n)
	if err != nil {
		t.Fatal(err)
	}
	if a.Phases != 3 {
		t.Fatalf("phases = %d, want 3 (log₂ 8)", a.Phases)
	}
	// Traces are cumulative, so a processor's knowledge is the union of all
	// the pairs it has read: for n=8 the maxima per phase are 2 (a leaf
	// pair), 6 (processor 1 reads inputs {2,3} at level 0 and {4..7} at
	// level 1) and 8 (processor 0 sees everything through the root merge).
	wantKnow := []int{2, 6, 8}
	for tt := 0; tt < a.Phases; tt++ {
		if a.MaxKnow[tt] != wantKnow[tt] {
			t.Errorf("phase %d: MaxKnow = %d, want %d", tt, a.MaxKnow[tt], wantKnow[tt])
		}
	}
	// The root cell's contents after the last phase are determined by all
	// 8 inputs, so |States| at the root = 2^8 and the spread of AffCell
	// counts the path structure: every input affects its ⌈log⌉ path cells
	// plus its input cell: 4.
	if a.MaxStates[a.Phases-1] < 1<<uint(n) {
		t.Errorf("final MaxStates = %d, want ≥ %d", a.MaxStates[a.Phases-1], 1<<uint(n))
	}
	if a.MaxAffCell[a.Phases-1] != 4 {
		t.Errorf("MaxAffCell = %d, want 4 (input + 3 tree cells)", a.MaxAffCell[a.Phases-1])
	}
	// Degrees: the indicator of "cell holds exactly information set X" for
	// the full-information tree is a full covering of the subcube: degree
	// equals the number of known inputs at most.
	for tt := 0; tt < a.Phases; tt++ {
		if a.MaxDegree[tt] > a.MaxKnow[tt] {
			t.Errorf("phase %d: degree %d exceeds |Know| %d", tt, a.MaxDegree[tt], a.MaxKnow[tt])
		}
	}
}

func TestAnalyzeKnowledgeTGood(t *testing.T) {
	n := 8
	a, err := AnalyzeKnowledge(treeORRunner(n), n)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's regime: ν = γρ with γ = ρ = 1, μ = 1. The binary merge
	// tree stays far inside the t-goodness envelope.
	if v := CheckTGood(a, 1, 1); len(v) != 0 {
		t.Errorf("t-goodness violations on a binary tree: %+v", v)
	}
}

// A contention-heavy algorithm (all processors funnel into one cell in
// phase 0) still satisfies the k_t bounds but shows AffCell growth.
func TestAnalyzeKnowledgeFunnel(t *testing.T) {
	n := 6
	cells := n + 1
	runner := func(bits []int64) (TraceSource, error) {
		m, err := gsm.New(gsm.Config{P: n, Alpha: 1, Beta: 1, Gamma: 1, N: n, Cells: cells})
		if err != nil {
			return nil, err
		}
		m.EnableTracing()
		if err := m.LoadInputs(bits); err != nil {
			return nil, err
		}
		// Phase 1: everyone reads its own cell.
		vals := make([]gsm.Info, n)
		m.Phase(func(c *gsm.Ctx) {
			vals[c.Proc()] = c.Read(c.Proc())
		})
		// Phase 2: everyone writes its info to the funnel cell (strong
		// queuing merges all of it).
		m.Phase(func(c *gsm.Ctx) {
			c.Write(n, vals[c.Proc()])
		})
		if m.Err() != nil {
			return nil, m.Err()
		}
		return m.TraceLog(), nil
	}
	a, err := AnalyzeKnowledge(runner, n)
	if err != nil {
		t.Fatal(err)
	}
	// After the funnel the cell knows everything.
	last := a.Phases - 1
	if a.MaxKnow[last] != n {
		t.Errorf("funnel cell knows %d, want %d", a.MaxKnow[last], n)
	}
	if v := CheckTGood(a, 1, 1); len(v) != 0 {
		t.Errorf("t-goodness violations: %+v", v)
	}
}

func TestAnalyzeKnowledgeValidation(t *testing.T) {
	runner := treeORRunner(4)
	if _, err := AnalyzeKnowledge(runner, 0); err == nil {
		t.Error("want n range error")
	}
	if _, err := AnalyzeKnowledge(runner, 20); err == nil {
		t.Error("want n range error")
	}
	noTrace := func(bits []int64) (TraceSource, error) {
		m, err := gsm.New(gsm.Config{P: 1, Alpha: 1, Beta: 1, Gamma: 1, N: len(bits), Cells: len(bits)})
		if err != nil {
			return nil, err
		}
		if tr := m.TraceLog(); tr != nil {
			return tr, nil
		}
		return nil, nil // tracing never enabled
	}
	if _, err := AnalyzeKnowledge(noTrace, 2); err == nil {
		t.Error("want missing-trace error")
	}
}

// The dimensions come from the traces, so a runner whose machine shape
// depends on the input is refused, naming the first input that differs.
func TestAnalyzeKnowledgeMixedShape(t *testing.T) {
	runner := func(bits []int64) (TraceSource, error) {
		procs := 2 + int(bits[1]) // input 10 adds a processor
		m, err := gsm.New(gsm.Config{P: procs, Alpha: 1, Beta: 1, Gamma: 1, N: 2, Cells: 2})
		if err != nil {
			return nil, err
		}
		m.EnableTracing()
		if err := m.LoadInputs(bits); err != nil {
			return nil, err
		}
		m.Phase(func(c *gsm.Ctx) {
			if c.Proc() < 2 {
				c.Read(c.Proc())
			}
		})
		return m.TraceLog(), m.Err()
	}
	_, err := AnalyzeKnowledge(runner, 2)
	if err == nil || !strings.Contains(err.Error(), "input 10 has 3 procs") {
		t.Fatalf("err = %v, want the shape error of input 10", err)
	}
}

func TestThresholdFunctions(t *testing.T) {
	// d_t = ν(μ+1)^{2t}.
	if got := DT(0, 2, 1); got != 2 {
		t.Errorf("DT(0) = %v, want 2", got)
	}
	if got := DT(2, 2, 1); got != 2*16 {
		t.Errorf("DT(2) = %v, want 32", got)
	}
	// k_t saturates but must be ≥ any measured quantity.
	if KT(1, 1, 1) < 256 {
		t.Errorf("KT(1) = %v implausibly small", KT(1, 1, 1))
	}
	if KT(10, 4, 4) < KT(1, 1, 1) {
		t.Error("KT must be monotone in its arguments")
	}
}
