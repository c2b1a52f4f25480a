package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
)

// TestExecuteRunContextKeepsRows checks that the run context changes how
// a machine runs, never what it computes: every Table 1 row at its
// smallest size gives the same Row at one worker with an event log
// attached as with the zero Runner, and a sweep experiment cell, which
// hands its RunConfig.Workers to the Runner, records the same cell at
// one worker as at the default.
func TestExecuteRunContextKeepsRows(t *testing.T) {
	const seed = 1998
	for _, e := range core.Experiments() {
		n := e.Ns[0]
		want, err := core.Runner{}.RunPoint(e, n, seed)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got, err := core.Runner{Workers: 1, Events: true}.RunPoint(e, n, seed)
		if err != nil {
			t.Fatalf("%s at one worker with events: %v", e.ID, err)
		}
		if got != want {
			t.Errorf("%s: row %+v at one worker with events, %+v with the zero Runner", e.ID, got, want)
		}
		c := sweep.Cell{Exp: e.ID, N: n, Seed: seed}
		if w1, w0 := sweep.RunCell(c, sweep.RunConfig{Workers: 1}), sweep.RunCell(c, sweep.RunConfig{}); !reflect.DeepEqual(w1, w0) {
			t.Errorf("%s: sweep record %+v at one worker, %+v at the default", e.ID, w1, w0)
		}
	}
}
