package core

import (
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestModelAndAlgUsageCoverRegistry(t *testing.T) {
	mu, au := ModelUsage(), AlgUsage()
	for _, name := range ModelNames() {
		if !strings.Contains(mu, name) {
			t.Errorf("model usage %q misses %q", mu, name)
		}
	}
	for _, name := range AlgNames() {
		if !strings.Contains(au, name) {
			t.Errorf("alg usage %q misses %q", au, name)
		}
	}
	// The historical drift this registry fixes: qsmgd/gsm missing from
	// -model usage, gsm-parity/gsm-or from -alg usage.
	for _, want := range []string{"qsmgd", "gsm"} {
		if !strings.Contains(mu, want) {
			t.Errorf("model usage %q misses %q", mu, want)
		}
	}
	for _, want := range []string{"gsm-parity", "gsm-or"} {
		if !strings.Contains(au, want) {
			t.Errorf("alg usage %q misses %q", au, want)
		}
	}
}

func TestExecuteMatchesRegistryFamilies(t *testing.T) {
	for _, as := range Algs() {
		var model string
		switch as.Family {
		case FamilyShared:
			model = "qsm"
		case FamilyBSP:
			model = "bsp"
		default:
			model = "gsm"
		}
		out, err := Execute(Point{Model: model, Alg: as.Name, N: 64, Seed: 1}, false, 0, nil, nil)
		if err != nil {
			t.Errorf("%s on %s: %v", as.Name, model, err)
			continue
		}
		if !out.Verified {
			t.Errorf("%s on %s: answer failed the oracle", as.Name, model)
		}
		if out.Report == nil || out.Report.TotalTime <= 0 {
			t.Errorf("%s on %s: missing cost report", as.Name, model)
		}
	}
}

// TestExecuteFaultedRunKeepsOutcome pins the fault-run contract: once the
// machine is built, a poisoned run returns its Outcome beside the error,
// with the event log and the fault report the chaos harness grades.
func TestExecuteFaultedRunKeepsOutcome(t *testing.T) {
	specs, err := fault.ParseSpecs("crash@1")
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(1, specs...)
	out, err := Execute(Point{Model: "qsm", Alg: "parity", N: 16, Seed: 1}, true, 0, nil, &Faults{Plan: plan})
	if err == nil {
		t.Fatal("a strict crash@1 run should poison the machine")
	}
	if out == nil {
		t.Fatalf("poisoned run returned no outcome beside %v", err)
	}
	if out.Events == nil || out.Stream() == "" {
		t.Error("poisoned run lost its event log")
	}
	if out.Faults == nil || out.Faults.Injected == 0 {
		t.Errorf("poisoned run lost its fault report: %v", out.Faults)
	}
	if out.Verified || out.Report != nil {
		t.Errorf("poisoned run reports an answer: verified=%t report=%v", out.Verified, out.Report)
	}
}

// TestExecuteConstructionFailure: an error before the machine exists
// returns no Outcome, with or without a fault plan.
func TestExecuteConstructionFailure(t *testing.T) {
	for _, fl := range []*Faults{nil, {Plan: fault.NewPlan(1)}} {
		out, err := Execute(Point{Model: "qsm", Alg: "parity", N: 0, Seed: 1}, true, 0, nil, fl)
		if err == nil || out != nil {
			t.Errorf("faults=%v: n=0 returned outcome %v, error %v; want nil and an error", fl != nil, out, err)
		}
	}
}

// TestExecuteDegradedRunners: under a degraded plan the three algorithms
// with a crash-masking variant mask the crash and still verify, while a
// degraded plan on an algorithm without one, or any plan on qsmgd, is
// refused before the machine is built.
func TestExecuteDegradedRunners(t *testing.T) {
	specs, err := fault.ParseSpecs("crash@2:p1")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"parity", "or-contention", "lac-dart"} {
		fl := &Faults{Plan: fault.NewPlan(1, specs...), Degraded: true}
		out, err := Execute(Point{Model: "crqw", Alg: alg, N: 32, G: 2, Seed: 1}, false, 0, nil, fl)
		if err != nil {
			t.Errorf("%s: %v", alg, err)
			continue
		}
		if !out.Verified || out.Faults.MaskedProcs == 0 {
			t.Errorf("%s: verified=%t masked=%d; want a verified run that masked the crash",
				alg, out.Verified, out.Faults.MaskedProcs)
		}
	}
	for _, pt := range []Point{
		{Model: "qsm", Alg: "prefix", N: 32, Seed: 1},
		{Model: "qsmgd", Alg: "parity", N: 32, Seed: 1},
	} {
		out, err := Execute(pt, false, 0, nil, &Faults{Plan: fault.NewPlan(1, specs...), Degraded: true})
		if err == nil || out != nil {
			t.Errorf("%s on %s: outcome %v, error %v; want a refusal", pt.Alg, pt.Model, out, err)
		}
	}
}
