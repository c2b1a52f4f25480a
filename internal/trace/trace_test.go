package trace_test

import (
	"testing"

	"repro/internal/bsp"
	"repro/internal/cost"
	"repro/internal/gsm"
	"repro/internal/qsm"
	"repro/internal/trace"
)

// Every model's trace answers out-of-range keys with the empty key and
// reports the machine's dimensions.
func TestOutOfRangeKeys(t *testing.T) {
	const procs = 2
	cases := []struct {
		name  string
		cells int
		run   func(t *testing.T) *trace.Trace
	}{
		{"qsm", 3, func(t *testing.T) *trace.Trace {
			m := qsm.MustNew(qsm.Config{Rule: cost.RuleQSM, P: procs, G: 1, N: 2, MemCells: 3})
			m.EnableTracing()
			m.Phase(func(c *qsm.Ctx) { c.Write(2, c.Read(c.Proc())) })
			return m.TraceLog()
		}},
		{"gsm", 3, func(t *testing.T) *trace.Trace {
			m := gsm.MustNew(gsm.Config{P: procs, Alpha: 1, Beta: 1, Gamma: 1, N: 2, Cells: 3})
			m.EnableTracing()
			if err := m.LoadInputs([]int64{1, 0}); err != nil {
				t.Fatal(err)
			}
			m.Phase(func(c *gsm.Ctx) { c.Write(2, c.Read(c.Proc())) })
			return m.TraceLog()
		}},
		{"bsp", procs, func(t *testing.T) *trace.Trace {
			m := bsp.MustNew(bsp.Config{P: procs, G: 1, L: 1, N: 2, PrivCells: 1})
			m.EnableTracing()
			m.Superstep(func(c *bsp.Ctx) { c.Send(1-c.Comp(), 0, 1) })
			return m.TraceLog()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.run(t)
			if tr.NumPhases() != 1 || tr.Procs() != procs || tr.Cells() != tc.cells {
				t.Fatalf("phases=%d procs=%d cells=%d, want 1, %d, %d",
					tr.NumPhases(), tr.Procs(), tr.Cells(), procs, tc.cells)
			}
			if tr.ProcKey(procs-1, 0) == "" || tr.CellKey(tc.cells-1, 0) == "∅" {
				t.Errorf("in-range keys are empty: %q, %q", tr.ProcKey(procs-1, 0), tr.CellKey(tc.cells-1, 0))
			}
			for _, p := range []int{-1, procs} {
				if got := tr.ProcKey(p, 0); got != "" {
					t.Errorf("ProcKey(%d, 0) = %q, want empty", p, got)
				}
			}
			for _, k := range [][2]int{{-1, 0}, {tc.cells, 0}, {0, -1}, {0, 1}} {
				if got := tr.CellKey(k[0], k[1]); got != "∅" {
					t.Errorf("CellKey(%d, %d) = %q, want ∅", k[0], k[1], got)
				}
			}
		})
	}
}
