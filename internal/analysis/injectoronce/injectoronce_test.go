package injectoronce

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestEngineNamesExist fails when the engine no longer declares the
// funnel and barrier names the single-draw rules are written against.
func TestEngineNamesExist(t *testing.T) {
	d := analysistest.EngineDecls(t)
	for _, name := range []string{"consultInjector", "commit"} {
		if !d.HasFunc(name) {
			t.Errorf("rule 1 names %s, which the engine no longer declares", name)
		}
	}
}
