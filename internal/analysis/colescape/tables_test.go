package colescape

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestSourceMethodsExist fails when a borrow-point name no longer names
// an engine method: the match is by name and shape across packages, so
// a renamed accessor would silently stop tainting its callers. Pooled
// fields need no such test; they are marked //repro:pooled at the field.
func TestSourceMethodsExist(t *testing.T) {
	d := analysistest.EngineDecls(t)
	for m := range sourceMethods { //lint:maporder-ok test assertions are independent per entry
		if !d.HasFunc(m) {
			t.Errorf("sourceMethods names %s, which the engine no longer declares", m)
		}
	}
}
