package suite

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestDirectives runs the suite's own directives check: //lint:<name>-ok
// directives naming no analyzer of the suite, and unknown or misplaced
// //repro: markers, are findings.
func TestDirectives(t *testing.T) {
	all := Analyzers()
	analysistest.Run(t, all[len(all)-1], "directives/a")
}
