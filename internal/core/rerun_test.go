package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestRegistryRerunIsIdentical runs every registry point (each algorithm
// on each model of its family, at the smallest shipped n) twice in one
// process and demands the same answer, cost report and event stream. A
// draw from math/rand's process-global source, which is seeded at random
// at startup, makes the two runs differ; so does any other state one run
// leaves behind for the next.
func TestRegistryRerunIsIdentical(t *testing.T) {
	n := core.DefaultNs()[0]
	r := core.Runner{Workers: 1, Events: true}
	points := 0
	for _, as := range core.Algs() {
		for _, model := range core.ModelNames() {
			if ms, _ := core.ModelByName(model); ms.Family != as.Family {
				continue
			}
			points++
			pt := core.Point{Model: model, Alg: as.Name, N: n, Seed: 1998}
			run := func() (string, string, string) {
				out, err := r.Execute(pt)
				if err != nil {
					t.Fatalf("%s on %s: %v", as.Name, model, err)
				}
				return out.Summary, fmt.Sprintf("%+v", *out.Report), out.Stream()
			}
			sum1, rep1, ev1 := run()
			sum2, rep2, ev2 := run()
			for _, d := range []struct{ what, a, b string }{
				{"answer", sum1, sum2}, {"cost report", rep1, rep2}, {"event stream", ev1, ev2},
			} {
				if d.a != d.b {
					t.Errorf("%s on %s: %s differs between two runs:\n%.300s\n%.300s", as.Name, model, d.what, d.a, d.b)
				}
			}
			if ev1 == "" {
				t.Errorf("%s on %s: empty event stream", as.Name, model)
			}
		}
	}
	if points < len(core.Algs()) {
		t.Fatalf("%d points for %d algorithms", points, len(core.Algs()))
	}
}
