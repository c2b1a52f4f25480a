package core

import (
	"strings"
	"testing"
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
		out, err := Execute(Point{Model: model, Alg: as.Name, N: 64, Seed: 1}, false, 0, nil)
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
