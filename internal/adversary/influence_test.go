package adversary

import (
	"testing"

	"repro/internal/broadcast"
	"repro/internal/cost"
	"repro/internal/qsm"
)

// The Theorem 3.3 information-spread argument, executed: in T phases with
// fan-out k, a single input bit can affect at most (k+1)^T cells. We run a
// traced QSM broadcast of one input bit (the maximal spreader) on all 2^n
// inputs and check |AffCell| against the spread cap.
func TestTheorem33InfluenceSpread(t *testing.T) {
	const (
		n      = 4 // traced exhaustively over 2^4 inputs
		fanout = 2
		copies = 16
	)
	runner := func(bits []int64) (TraceSource, error) {
		m, err := qsm.New(qsm.Config{
			Rule: cost.RuleQSM, P: copies, G: 1, N: n, MemCells: n,
		})
		if err != nil {
			return nil, err
		}
		m.EnableTracing()
		if err := m.Load(0, bits); err != nil {
			return nil, err
		}
		// Broadcast input bit 0 to `copies` cells with the given fan-out.
		if _, err := broadcast.RunQSM(m, 0, copies, fanout); err != nil {
			return nil, err
		}
		if m.Err() != nil {
			return nil, m.Err()
		}
		return m.TraceLog(), nil
	}
	a, err := AnalyzeKnowledge(runner, n)
	if err != nil {
		t.Fatal(err)
	}
	// Input 0's influence grows by at most ×(fanout+1) per phase.
	cap := 1.0
	for tt := 0; tt < a.Phases; tt++ {
		cap *= float64(fanout + 1)
		if float64(a.MaxAffCell[tt]) > cap+1 { // +1 for the original input cell
			t.Errorf("phase %d: |AffCell| = %d exceeds (k+1)^T = %v",
				tt, a.MaxAffCell[tt], cap)
		}
	}
	// The final phase must show real spread: bit 0 affects every broadcast
	// cell (influence reached ~copies cells), while bits 1..3 affect none.
	last := a.Phases - 1
	if a.MaxAffCell[last] < copies {
		t.Errorf("final |AffCell| = %d, want ≥ %d (full broadcast)", a.MaxAffCell[last], copies)
	}
	// Only one input has any influence — its Know sets are singletons.
	if a.MaxKnow[last] != 1 {
		t.Errorf("max |Know| = %d, want 1 (only bit 0 is ever read)", a.MaxKnow[last])
	}
}

// A QSM read tree analyzed with the same machinery: knowledge accumulates
// exactly as in the GSM case, confirming the analyzer is model-agnostic.
func TestAnalyzeKnowledgeQSMTree(t *testing.T) {
	const n = 8
	runner := func(bits []int64) (TraceSource, error) {
		m, err := qsm.New(qsm.Config{
			Rule: cost.RuleQSM, P: n, G: 1, N: n, MemCells: n,
		})
		if err != nil {
			return nil, err
		}
		m.EnableTracing()
		if err := m.Load(0, bits); err != nil {
			return nil, err
		}
		cur, width := 0, n
		for width > 1 {
			next := m.MemSize()
			nw := (width + 1) / 2
			m.Grow(next + nw)
			curL, widthL := cur, width
			m.Phase(func(c *qsm.Ctx) {
				j := c.Proc()
				if j >= nw {
					return
				}
				v := c.Read(curL + 2*j)
				if 2*j+1 < widthL {
					if c.Read(curL+2*j+1) != 0 {
						v = 1
					}
				}
				if v != 0 {
					v = 1
				}
				c.Op(1)
				c.Write(next+j, v)
			})
			cur, width = next, nw
		}
		if m.Err() != nil {
			return nil, m.Err()
		}
		return m.TraceLog(), nil
	}
	a, err := AnalyzeKnowledge(runner, n)
	if err != nil {
		t.Fatal(err)
	}
	if a.Phases != 3 {
		t.Fatalf("phases = %d, want 3", a.Phases)
	}
	// The root cell's OR value is determined by all inputs, so some cell
	// knows all n inputs at the end.
	if a.MaxKnow[a.Phases-1] != n {
		t.Errorf("final max |Know| = %d, want %d", a.MaxKnow[a.Phases-1], n)
	}
	// OR-tree cell states are coarse (value 0/1), but the knowledge/degree
	// ledger still respects deg ≤ n.
	if a.MaxDegree[a.Phases-1] > n {
		t.Errorf("degree %d exceeds n", a.MaxDegree[a.Phases-1])
	}
}
