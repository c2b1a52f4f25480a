package chaos

import (
	"fmt"

	"repro/internal/fault"
)

// Mix is one named fault blend of the standard sweep. Degraded applies
// only where degraded runners exist (the shared-memory models).
type Mix struct {
	// Specs is the declarative fault mix in the internal/fault grammar.
	Specs string
	// Degraded requests crash masking with survivor re-partitioning.
	Degraded bool
}

// standardMixes is the sweep's fault matrix. Kinds that do not apply to a
// machine family (memory faults on BSP, message faults on shared memory)
// simply never fire there — the run is then a clean control.
var standardMixes = []Mix{
	{"mem~0.05", false},          // sparse transient memory errors, strict retry
	{"mem@1,mem@3", false},       // pinned transients on two phases
	{"crash@2:p1", true},         // one masked crash, survivor re-partitioning
	{"crash@1:p0,mem~0.1", true}, // masked crash plus transient noise
	{"crash@1", false},           // strict crash: poison diagnosably
	{"violation@2", false},       // injected contention-rule violation
	{"budget@200", false},        // cost-budget ceiling
	{"drop~0.1,dup~0.1", false},  // BSP message channel faults
}

// StandardMixes returns the standard fault matrix (shared with the
// internal/sweep chaos preset, which expands the same scenarios through
// the generic cell runner).
func StandardMixes() []Mix { return standardMixes }

// AlgsFor lists the algorithms swept per model family.
func AlgsFor(model string) []string {
	switch model {
	case "bsp", "gsm":
		return []string{"parity", "or"}
	default:
		return []string{"parity", "or", "lac"}
	}
}

// Models is the full constructor matrix of the sweep.
var Models = []string{"qsm", "sqsm", "crqw", "bsp", "gsm"}

// Scenarios expands seeds × standard fault mixes × models × algorithms
// into the standard sweep (len = |seeds| · |mixes| · (3·3 + 2·2) = 104
// per seed). Degraded mixes fall back to strict on models without
// degraded runners.
func Scenarios(seeds []int64, n int) ([]Scenario, error) {
	var out []Scenario
	for _, mx := range standardMixes {
		specs, err := fault.ParseSpecs(mx.Specs)
		if err != nil {
			return nil, fmt.Errorf("chaos: bad standard mix %q: %w", mx.Specs, err)
		}
		for _, model := range Models {
			degraded := mx.Degraded && model != "bsp" && model != "gsm"
			for _, alg := range AlgsFor(model) {
				for _, seed := range seeds {
					out = append(out, Scenario{
						Model: model, Alg: alg, N: n, Seed: seed,
						Specs: specs, Degraded: degraded,
					})
				}
			}
		}
	}
	return out, nil
}
