// Package suite assembles the project's analyzers in reporting order. It
// sits above the individual analyzer packages so the framework package
// stays import-cycle-free and tools (cmd/reprolint, the suite tests) have
// one place to pull the full set from.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/barrier"
	"repro/internal/analysis/colescape"
	"repro/internal/analysis/costbalance"
	"repro/internal/analysis/goleak"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/sentinelwrap"
	"repro/internal/analysis/wallclock"
)

// Analyzers returns the full reprolint suite: the per-file determinism
// checks first, then the interprocedural contract analyzers (the commit
// barrier among them), then the CFG-based dataflow analyzers, then the
// concurrency analyzers (goroutine lifecycle, lock discipline, atomic
// access discipline), and last the directives check, which knows every
// other analyzer's name.
func Analyzers() []*analysis.Analyzer {
	list := []*analysis.Analyzer{
		maporder.Analyzer,
		wallclock.Analyzer,
		barrier.Analyzer,
		sentinelwrap.Analyzer,
		costbalance.Analyzer,
		colescape.Analyzer,
		goleak.Analyzer,
		lockorder.Analyzer,
		atomicmix.Analyzer,
	}
	return append(list, analysis.Directives(list))
}
