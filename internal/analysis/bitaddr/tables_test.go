package bitaddr

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestPackedColumnsExist fails when the packed-column table names an
// engine type or field that no longer exists. Columns are keyed by the
// type they are read through, so a promoted field counts.
func TestPackedColumnsExist(t *testing.T) {
	d := analysistest.EngineDecls(t)
	for typ, fields := range packedColumns { //lint:maporder-ok test assertions are independent per entry
		for f := range fields { //lint:maporder-ok test assertions are independent per entry
			if !d.HasField(typ, f) {
				t.Errorf("packedColumns names %s.%s, which the engine no longer has", typ, f)
			}
		}
	}
}
