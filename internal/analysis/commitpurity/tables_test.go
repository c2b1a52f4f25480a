package commitpurity

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// TestAllowedWritersExist fails when the allowed-writers table names an
// engine type or writer that no longer exists: a stale type entry stops
// protecting anything, and a stale writer is a hole waiting for a reuse
// of its name.
func TestAllowedWritersExist(t *testing.T) {
	d := analysistest.EngineDecls(t)
	for typ, writers := range allowedWriters { //lint:maporder-ok test assertions are independent per entry
		if !d.HasType(typ) {
			t.Errorf("allowedWriters names type %s, which the engine no longer declares", typ)
		}
		for w := range writers { //lint:maporder-ok test assertions are independent per entry
			if !d.HasFunc(w) {
				t.Errorf("allowedWriters[%s] names writer %s, which the engine no longer declares", typ, w)
			}
		}
	}
}
