// Package globalrand flags uses of the process-global math/rand source
// and stray RNG construction in non-test code.
//
// Model-level randomness (dart throws, RANDOMSET draws, workload
// generation) must come from a seeded *rand.Rand threaded in from the
// configuration boundary, so that a seed in a report or golden file
// reproduces the run bit-for-bit. Two patterns break that:
//
//   - Top-level math/rand functions (rand.Intn, rand.Float64, rand.Perm,
//     …) draw from the process-global source, which is seeded randomly at
//     startup and shared across goroutines — every call site is
//     irreproducible. These are flagged everywhere.
//   - rand.New / rand.NewSource in algorithm or simulator packages mints
//     a private generator whose seed is invisible to the experiment
//     configuration. Construction is allowed only at the RNG boundary —
//     the facade (package repro), the workload generators, the experiment
//     engine (internal/core) and the cmds, which all derive seeds from
//     explicit configuration — and flagged elsewhere.
//
// Suppress a deliberate exception with //lint:globalrand-ok <reason>.
package globalrand

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags global math/rand use and out-of-boundary RNG construction.
var Analyzer = &analysis.Analyzer{
	Name: "globalrand",
	Doc:  "flag the global math/rand source and RNG construction outside the config boundary",
	Run:  run,
}

// constructors are the math/rand (and v2) package-level functions that
// build generators rather than draw from the global source.
var constructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// constructionBoundary reports whether pkgPath may construct RNGs: the
// packages that turn explicit config seeds into injected *rand.Rand
// values. internal/fault is on the boundary because a fault.Plan *is* a
// seed turned into a generator (the seed is the identity of the fault
// schedule and appears in every chaos report); internal/core turns each
// point's seed into the dart-throwing RNG of its lac-dart runners.
func constructionBoundary(pkgPath string) bool {
	switch pkgPath {
	case "repro", "repro/internal/workload", "repro/internal/core",
		"repro/internal/fault":
		return true
	}
	return strings.HasPrefix(pkgPath, "repro/cmd/")
}

func run(pass *analysis.Pass) error {
	pass.CheckDirectives()
	allowConstruct := constructionBoundary(pass.Path)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := randFunc(pass.TypesInfo, sel)
			if fn == nil {
				return true
			}
			name := fn.Name()
			if constructors[name] {
				if allowConstruct || pass.Allowlisted(f, sel.Pos()) {
					return true
				}
				pass.Reportf(sel.Pos(),
					"rand.%s constructs a generator outside the RNG boundary; accept an injected seeded *rand.Rand (or annotate //lint:globalrand-ok <reason>)",
					name)
				return true
			}
			if pass.Allowlisted(f, sel.Pos()) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"rand.%s draws from the irreproducible process-global source; use an injected seeded *rand.Rand (or annotate //lint:globalrand-ok <reason>)",
				name)
			return true
		})
	}
	return nil
}

// randFunc returns the package-level math/rand (or math/rand/v2) function
// a selector refers to, or nil. Methods on *rand.Rand (an injected
// generator) are the approved pattern and return nil here.
func randFunc(info *types.Info, sel *ast.SelectorExpr) *types.Func {
	obj := info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return nil // method on an injected generator
	}
	return fn
}
