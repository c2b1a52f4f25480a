// Package suite assembles the project's analyzers in reporting order. It
// sits above the individual analyzer packages so the framework package
// stays import-cycle-free and tools (cmd/reprolint, the suite tests) have
// one place to pull the full set from.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/colescape"
	"repro/internal/analysis/commitpurity"
	"repro/internal/analysis/costbalance"
	"repro/internal/analysis/globalrand"
	"repro/internal/analysis/goleak"
	"repro/internal/analysis/hotpathalloc"
	"repro/internal/analysis/injectoronce"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/observerpurity"
	"repro/internal/analysis/sentinelwrap"
	"repro/internal/analysis/snapshotdeep"
	"repro/internal/analysis/wallclock"
)

// Analyzers returns the full reprolint suite: the per-file determinism
// checks of PR 3 first, then the interprocedural contract analyzers,
// then the CFG-based dataflow analyzers of PR 8, then the concurrency
// analyzers of PR 10 (goroutine lifecycle, lock discipline, atomic
// access discipline).
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maporder.Analyzer,
		globalrand.Analyzer,
		wallclock.Analyzer,
		commitpurity.Analyzer,
		sentinelwrap.Analyzer,
		snapshotdeep.Analyzer,
		costbalance.Analyzer,
		injectoronce.Analyzer,
		observerpurity.Analyzer,
		hotpathalloc.Analyzer,
		colescape.Analyzer,
		goleak.Analyzer,
		lockorder.Analyzer,
		atomicmix.Analyzer,
	}
}
