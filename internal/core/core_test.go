package core

import (
	"strings"
	"testing"

	"repro/internal/bounds"
)

func TestExperimentsRegistryComplete(t *testing.T) {
	exps := Experiments()
	// Every Table 1 registry row must have exactly one experiment.
	want := map[string]bool{}
	for _, e := range bounds.Registry {
		want[e.ID] = false
	}
	for _, e := range exps {
		if _, ok := want[e.ID]; !ok {
			t.Errorf("experiment %s has no bounds entry", e.ID)
			continue
		}
		if want[e.ID] {
			t.Errorf("duplicate experiment for %s", e.ID)
		}
		want[e.ID] = true
		if len(e.Ns) == 0 {
			t.Errorf("experiment %s has no sweep", e.ID)
		}
		if _, ok := AlgByName(e.At.Alg); !ok {
			t.Errorf("experiment %s names unregistered algorithm %q", e.ID, e.At.Alg)
		}
		if e.Quantity != "time" && e.Quantity != "rounds" {
			t.Errorf("experiment %s has bad quantity %q", e.ID, e.Quantity)
		}
	}
	for id, covered := range want {
		if !covered {
			t.Errorf("bounds entry %s has no experiment", id)
		}
	}
}

func TestExperimentByID(t *testing.T) {
	if ExperimentByID("T2.Parity.det") == nil {
		t.Error("missing T2.Parity.det")
	}
	if ExperimentByID("nope") != nil {
		t.Error("unknown id should return nil")
	}
}

// Run the tight (Θ) rows at small sizes and check the ratio bands flatten —
// the core empirical claim of the reproduction.
func TestTightRowsFlatten(t *testing.T) {
	small := []int{1 << 8, 1 << 9, 1 << 10, 1 << 11}
	for _, id := range []string{
		"T2.Parity.det", "T3.Parity.det",
		"T4.OR.sqsm", "T4.OR.bsp", "T4.Parity.sqsm", "T4.Parity.bsp",
	} {
		e := ExperimentByID(id)
		if e == nil {
			t.Fatalf("missing experiment %s", id)
		}
		e.Ns = small
		r, err := e.Run(1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !r.Tight(3.0) {
			t.Errorf("%s: ratio spread %.2f exceeds 3 for a Θ row", id, r.RatioSpread)
		}
	}
}

// Ω rows: the measured algorithm cost must dominate the lower bound at
// every sweep point (with slack for our unit constants).
func TestLowerBoundsAreFloors(t *testing.T) {
	small := []int{1 << 8, 1 << 10, 1 << 12}
	for _, id := range []string{
		"T1.OR.det", "T1.OR.rand", "T2.OR.det", "T2.OR.rand",
		"T2.LAC.rand", "T3.OR.det",
	} {
		e := ExperimentByID(id)
		if e == nil {
			t.Fatalf("missing experiment %s", id)
		}
		e.Ns = small
		r, err := e.Run(2)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !r.DominatesBound(0.25) {
			t.Errorf("%s: measured cost dips below the lower bound:\n%s", id, RenderResult(r))
		}
	}
}

func TestRunValidation(t *testing.T) {
	e := &Experiment{ID: "bogus", Ns: []int{8}}
	if _, err := e.Run(1); err == nil {
		t.Error("want unknown-bound error")
	}
	e2 := ExperimentByID("T2.Parity.det")
	e2.Ns = nil
	if _, err := e2.Run(1); err == nil {
		t.Error("want empty-sweep error")
	}
}

func TestMeasurementsVerifyAnswers(t *testing.T) {
	// The measurement closures verify algorithm output; a sanity run of a
	// representative from each family must succeed.
	for _, id := range []string{
		"T1.Parity.det", "T1.LAC.det", "T3.LAC.det", "T4.LAC.qsm", "T4.LAC.bsp", "T4.OR.qsm",
	} {
		e := ExperimentByID(id)
		e.Ns = []int{1 << 8}
		if _, err := e.Run(3); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestRenderResult(t *testing.T) {
	e := ExperimentByID("T2.Parity.det")
	e.Ns = []int{1 << 8, 1 << 9}
	r, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderResult(r)
	for _, want := range []string{"T2.Parity.det", "ratio spread", "g·log n", "Θ"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	r := &Result{
		Entry: &bounds.Entry{},
		Rows: []Row{
			{Measured: 10, Bound: 5, Ratio: 2},
			{Measured: 24, Bound: 6, Ratio: 4},
		},
		RatioSpread: 2,
	}
	if !r.Tight(2.5) || r.Tight(1.5) {
		t.Error("Tight threshold wrong")
	}
	if !r.DominatesBound(1.0) {
		t.Error("DominatesBound should hold")
	}
	if r.DominatesBound(3.0) {
		t.Error("DominatesBound with huge slack should fail")
	}
}
