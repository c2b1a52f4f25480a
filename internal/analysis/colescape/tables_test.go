package colescape

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestPooledFieldsExist fails when the pooled-field table names an engine
// type or field that no longer exists: the analyzer attributes a field
// to the type declaring it, so a stale entry silently stops tainting.
func TestPooledFieldsExist(t *testing.T) {
	d := analysistest.EngineDecls(t)
	for typ, fields := range pooledFields { //lint:maporder-ok test assertions are independent per entry
		for f := range fields { //lint:maporder-ok test assertions are independent per entry
			if !d.DeclaresField(typ, f) {
				t.Errorf("pooledFields names %s.%s, which the engine no longer declares", typ, f)
			}
		}
	}
	for m := range sourceMethods { //lint:maporder-ok test assertions are independent per entry
		if !d.HasFunc(m) {
			t.Errorf("sourceMethods names %s, which the engine no longer declares", m)
		}
	}
}
