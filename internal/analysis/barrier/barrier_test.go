package barrier

import (
	"testing"

	"repro/internal/analysis/analysistest"
)

// One fixture package per rule: each seeds its own rule's findings, so a
// rule that goes quiet fails its own test.

func TestSanctionedWriters(t *testing.T) {
	analysistest.Run(t, Analyzer, "repro/internal/engine")
}

func TestReadOnlyObservers(t *testing.T) {
	analysistest.Run(t, Analyzer, "observers/internal/engine")
}

func TestInjectorConsult(t *testing.T) {
	analysistest.Run(t, Analyzer, "inject/internal/engine")
}

// TestAppliesOnlyToEngine pins which packages hold engine state: the
// sanctioned-writer rule runs in them, and observer writes into them are
// effects.
func TestAppliesOnlyToEngine(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/engine":     true,
		"other/internal/engine":     true,
		"repro/internal/compaction": false,
		"repro/internal/engineered": false,
	} { //lint:maporder-ok test assertions are independent per entry
		if got := isEngine(path); got != want {
			t.Errorf("isEngine(%q) = %v, want %v", path, got, want)
		}
	}
}

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

// TestEngineNamesExist fails when the engine no longer declares the
// funnel and barrier names the injector rule is written against.
func TestEngineNamesExist(t *testing.T) {
	d := analysistest.EngineDecls(t)
	for _, name := range []string{"consultInjector", "commit"} {
		if !d.HasFunc(name) {
			t.Errorf("the injector rule names %s, which the engine no longer declares", name)
		}
	}
}
