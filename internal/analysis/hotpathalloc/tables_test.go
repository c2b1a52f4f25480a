package hotpathalloc

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestEngineRootsExist fails when a hot root names a function the engine
// no longer declares: the path it guarded would go cold silently.
func TestEngineRootsExist(t *testing.T) {
	d := analysistest.EngineDecls(t)
	for root := range engineRoots { //lint:maporder-ok test assertions are independent per entry
		if !d.HasFunc(root) {
			t.Errorf("engineRoots names %s, which the engine no longer declares", root)
		}
	}
}
