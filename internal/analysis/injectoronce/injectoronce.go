// Package injectoronce guards the single-draw fault-injection contract:
// the injector is consulted exactly once per phase attempt, from the
// commit barrier, on the coordinating goroutine (DESIGN.md §6). That is
// what makes fault schedules a pure function of the seed — byte-identical
// at Workers=1 and Workers=N. A second consult path (a debug probe, an
// eager pre-check in a worker body, a stray RNG draw in the plan) shifts
// every subsequent draw and silently changes which faults fire.
//
// Three rules, all structural so fixtures type-check against GOROOT:
//
//  1. a method named consultInjector may be called only from a method
//     named commit (the one barrier, engine.Core.commit), and from one
//     call site in the package;
//  2. an Inject-shaped method (Inject(InjectCtx) Verdict) may be called
//     only from consultInjector — the engine's one funnel;
//  3. inside a package that implements an injector (a type with an
//     Inject-shaped method), any function drawing from that type's
//     *math/rand.Rand field must be reachable in the call graph from
//     the type's Inject method, so every draw is accounted to a
//     consult.
//
// Test files are exempt: tests drive injectors directly on purpose.
package injectoronce

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/interproc"
)

// Analyzer confines injector consults and RNG draws to the commit barrier.
var Analyzer = &analysis.Analyzer{
	Name: "injectoronce",
	Doc:  "flag injector consults and injector-RNG draws outside the commit-barrier call path",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.CheckDirectives()
	g := interproc.Build(pass)

	consults := 0
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		if pass.InTestFile(info.Decl.Pos()) {
			continue
		}
		caller := info.Decl.Name.Name
		for _, c := range info.Calls {
			switch {
			case c.Name == "consultInjector":
				if consults++; caller == "commit" && consults == 1 || pass.Allowlisted(info.File, c.Pos.Pos()) {
					continue
				}
				pass.Reportf(c.Pos.Pos(),
					"consultInjector called from %s (call site %d); the single-draw contract consults the injector from one call site, in the commit barrier (commit), or annotate //lint:injectoronce-ok <reason>", sym, consults)
			case caller != "consultInjector" && isInjectCall(pass, c):
				if pass.Allowlisted(info.File, c.Pos.Pos()) {
					continue
				}
				pass.Reportf(c.Pos.Pos(),
					"injector Inject called from %s; only the engine's consultInjector funnel may consult the injector, or annotate //lint:injectoronce-ok <reason>", sym)
			}
		}
	}

	checkRNGPaths(pass, g)
	return nil
}

// isInjectCall matches a call edge to an Inject-shaped method:
// Inject(InjectCtx) Verdict, by type names rather than package identity.
func isInjectCall(pass *analysis.Pass, c interproc.Callee) bool {
	if c.Name != "Inject" {
		return false
	}
	call, ok := c.Pos.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := interproc.CalleeFunc(pass, call)
	return fn != nil && isInjectShaped(fn)
}

// isInjectShaped reports whether fn is a method Inject(InjectCtx) Verdict.
func isInjectShaped(fn *types.Func) bool {
	if fn.Name() != "Inject" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
		return false
	}
	return namedTypeName(sig.Params().At(0).Type()) == "InjectCtx" &&
		namedTypeName(sig.Results().At(0).Type()) == "Verdict"
}

func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// checkRNGPaths applies rule 3: every draw from an injector type's
// *rand.Rand field must be reachable from that type's Inject method.
func checkRNGPaths(pass *analysis.Pass, g *interproc.Graph) {
	for _, injType := range injectorTypes(g, pass) {
		reach := g.ReachableFrom(injType + ".Inject")
		for _, sym := range g.Order {
			info := g.Funcs[sym]
			if reach[sym] || pass.InTestFile(info.Decl.Pos()) {
				continue
			}
			for _, draw := range rngDraws(pass, info, injType) {
				if pass.Allowlisted(info.File, draw.Pos()) {
					continue
				}
				pass.Reportf(draw.Pos(),
					"%s draws from %s's injector RNG outside the Inject call path; a draw off the consult path shifts the whole fault schedule — route it through Inject or annotate //lint:injectoronce-ok <reason>",
					sym, injType)
			}
		}
	}
}

// injectorTypes lists the receiver type names in this package that have
// an Inject-shaped method, in declaration order.
func injectorTypes(g *interproc.Graph, pass *analysis.Pass) []string {
	var out []string
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		if info.Decl.Recv == nil || info.Decl.Name.Name != "Inject" {
			continue
		}
		fn, ok := pass.TypesInfo.Defs[info.Decl.Name].(*types.Func)
		if !ok || !isInjectShaped(fn) {
			continue
		}
		out = append(out, strings.TrimSuffix(sym, ".Inject"))
	}
	return out
}

// rngDraws finds method calls through a *math/rand.Rand field owned by
// injType inside info's body (p.rng.Float64(), p.rng.Intn(n), …).
func rngDraws(pass *analysis.Pass, info *interproc.FuncInfo, injType string) []ast.Node {
	var out []ast.Node
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		field, ok := ast.Unparen(fun.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		sel := pass.TypesInfo.Selections[field]
		if sel == nil || sel.Kind() != types.FieldVal {
			return true
		}
		if !isRandRand(sel.Type()) {
			return true
		}
		if interproc.RecvTypeName(sel.Recv()) != injType {
			return true
		}
		out = append(out, call)
		return true
	})
	return out
}

// isRandRand matches *math/rand.Rand (v1; the repository's seeded source).
func isRandRand(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Rand" && n.Obj().Pkg().Path() == "math/rand"
}
