// Package barrier guards the engine's one commit barrier. Paper §2
// treats a phase as one synchronous step: every request is recorded
// first, and the step's cost and its writes take effect at a single
// barrier, engine.Core.commit (DESIGN.md §4). The determinism of the
// cost reports and event streams rests on nothing else touching engine
// state around that barrier, and the fault schedule's seed-purity
// (DESIGN.md §6) on the injector being consulted once, from it.
//
// Engine state is any field of a type declared in an internal/engine
// package. One write walker finds every assignment (or ++/--) to a
// struct field, through indexing, dereference and embedding, and
// attributes it to the type declaring the field. It feeds three rules:
//
//  1. Sanctioned writers. In the engine package, a field of a protected
//     type may be written only from that type's sanctioned writers
//     (allowedWriters). Unexported fields make writes from other
//     packages impossible.
//  2. Read-only observers. A type declaring the structural Observer
//     triple PhaseStart(phase), Request(phase, r), PhaseEnd(phase, pc)
//     must not write engine state, directly or through any callee, other
//     than its own fields (EventLog appending to itself is the intended
//     pattern). Every function's write effects are exported as facts, so
//     the rule sees through calls into other packages.
//  3. One injector consult. A method named consultInjector may be
//     called only from one call site, in a method named commit; an
//     Inject(InjectCtx) Verdict method only from consultInjector; and,
//     in a package that declares an injector, every draw from the
//     injector's *math/rand.Rand field must be reachable from its Inject
//     method, so every draw is accounted to a consult.
//
// Test files are exempt from the rules. Suppression:
// //lint:barrier-ok <reason>.
package barrier

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/interproc"
)

// Analyzer guards the commit barrier: sanctioned engine writers,
// read-only observers and the single injector consult.
var Analyzer = &analysis.Analyzer{
	Name: "barrier",
	Doc:  "flag engine-state writes outside the commit entry points or from observers, and injector consults off the commit barrier",
	Run:  run,
}

// allowedWriters maps each protected engine type to the functions that
// may write its fields: the lifecycle entry points (Init*, init, Grow,
// ForAll, Superstep, runPhase), the barrier's column sources (gather,
// apply, corrupt), the request recorders (the MemCtx, BitCtx and Sends
// methods, per-cell and batch alike — a batch recorder appends to the
// same cursor columns as its per-cell twin, so it is part of the same
// contract), the lane's setup and run loop (init, run), and the
// fault-injection/recovery machinery (InjectFaults attachment, the
// barrier-side consult/accounting, and the checkpoint/rollback path — all
// of which run on the coordinating goroutine, see fault.go). Everything
// else must go through these.
var allowedWriters = map[string]map[string]bool{
	"Core": set("Init", "runPhase", "RecordErr", "AddObserver", "observePhaseStart",
		"InjectFaults", "consultInjector", "chargeRecovery", "ckCore", "rewindCore",
		"retriesExhausted", "Grow"),
	"store":  set("init", "Grow", "SetBit", "corrupt"),
	"shared": set("init", "ForAll", "Checkpoint", "gather"),
	"Mem":    set("InitMem"),
	"cursor": set("init", "run", "failf", "Op", "Read", "ReadWord", "Write",
		"ReadBlock", "ReadBatch", "WriteBlock", "WriteFill", "WriteBatch",
		"AddWork", "Stage", "Fail", "StageBatch"),
	"lane":  set("init", "run"),
	"Route": set("InitRoute", "Superstep", "Checkpoint", "Rollback", "corrupt", "gather", "apply"),
	"Sends": set(),
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// isEngine reports whether a package path names engine state.
func isEngine(pkgPath string) bool { return strings.HasSuffix(pkgPath, "internal/engine") }

func run(pass *analysis.Pass) error {
	pass.CheckDirectives()
	g := interproc.Build(pass)

	local := make(map[string]map[string]bool)
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		for _, w := range writes(pass, info.Decl.Body) {
			if !isEngine(w.pkg) {
				continue
			}
			if local[sym] == nil {
				local[sym] = make(map[string]bool)
			}
			local[sym][w.pkg+"."+w.owner] = true
			if isEngine(pass.Path) && !pass.InTestFile(info.Decl.Pos()) {
				checkWriter(pass, info, w)
			}
		}
	}
	effects := g.PropagateSets(local, func(c interproc.Callee) []string {
		payload, _ := pass.DepFact(c.PkgPath, c.Sym)
		return interproc.DecodePayload(payload)
	})
	for _, sym := range g.Order {
		if set := effects[sym]; len(set) > 0 {
			pass.ExportFact(sym, interproc.JoinPayload(interproc.Members(set)))
		}
	}
	checkObservers(pass, g, effects)
	checkConsults(pass, g)
	checkRNGPaths(pass, g)
	return nil
}

// write is one assignment to a struct field: the field's selector, the
// assignment token (the allowlist anchor), and the package and name of
// the type declaring the field.
type write struct {
	sel               *ast.SelectorExpr
	tok               token.Pos
	pkg, owner, field string
}

// writes walks a function body (function literals included: the engine
// dispatches its chunks through closures, which inherit the enclosing
// declaration's identity) and returns every field write.
func writes(pass *analysis.Pass, body *ast.BlockStmt) []write {
	var out []write
	record := func(lhs ast.Expr, tok token.Pos) {
		sel := rootSelector(lhs)
		if sel == nil {
			return
		}
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return
		}
		pkg, owner, field := analysis.FieldOwner(selection.Recv(), selection.Index())
		out = append(out, write{sel, tok, pkg, owner, field})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				record(lhs, st.TokPos)
			}
		case *ast.IncDecStmt:
			record(st.X, st.TokPos)
		}
		return true
	})
	return out
}

// rootSelector unwraps indexing, dereference and parenthesisation around
// an assignment target and returns the field selector being written
// (m.mem[i] = v writes through the field mem).
func rootSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x
		default:
			return nil
		}
	}
}

// checkWriter applies rule 1 to one engine-package write.
func checkWriter(pass *analysis.Pass, info *interproc.FuncInfo, w write) {
	writers, protected := allowedWriters[w.owner]
	fn := info.Decl.Name.Name
	if w.pkg != pass.Pkg.Path() || !protected || writers[fn] || pass.Allowlisted(info.File, w.tok) {
		return
	}
	names := make([]string, 0, len(writers))
	for n := range writers { //lint:maporder-ok names are sorted before use
		names = append(names, n)
	}
	sort.Strings(names)
	pass.Reportf(w.sel.Pos(),
		"engine.%s.%s written in %s, outside the commit entry points (%s); route the mutation through them or annotate //lint:barrier-ok <reason>",
		w.owner, w.field, fn, strings.Join(names, "/"))
}

// observerArity is the structural Observer triple, matched by name and
// parameter count so fixtures need no engine import.
var observerArity = map[string]int{"PhaseStart": 1, "Request": 2, "PhaseEnd": 2}

// checkObservers applies rule 2: every method of the triple on a type
// declaring all three must have no transitive engine write effect
// outside its own type.
func checkObservers(pass *analysis.Pass, g *interproc.Graph, effects map[string]map[string]bool) {
	found := make(map[string][]*interproc.FuncInfo)
	var order []string
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		want, ok := observerArity[info.Decl.Name.Name]
		if info.Decl.Recv == nil || !ok || info.Decl.Type.Params.NumFields() != want {
			continue
		}
		recv := strings.TrimSuffix(sym, "."+info.Decl.Name.Name)
		if found[recv] == nil {
			order = append(order, recv)
		}
		found[recv] = append(found[recv], info)
	}
	for _, recv := range order {
		if len(found[recv]) != len(observerArity) {
			continue
		}
		own := pass.Pkg.Path() + "." + recv
		for _, info := range found[recv] {
			var foreign []string
			for _, eff := range interproc.Members(effects[info.Sym]) {
				if eff != own {
					foreign = append(foreign, eff)
				}
			}
			if len(foreign) == 0 || pass.InTestFile(info.Decl.Pos()) || pass.Allowlisted(info.File, info.Decl.Pos()) {
				continue
			}
			pass.Reportf(info.Decl.Pos(),
				"observer method %s (transitively) writes engine state %s; observers are read-only — accumulate into the observer's own state or annotate //lint:barrier-ok <reason>",
				info.Sym, strings.Join(foreign, ", "))
		}
	}
}

// checkConsults applies rule 3's call-site half: consultInjector once,
// from commit, and Inject only from consultInjector.
func checkConsults(pass *analysis.Pass, g *interproc.Graph) {
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
					"consultInjector called from %s (call site %d); the single-draw contract consults the injector from one call site, in the commit barrier (commit), or annotate //lint:barrier-ok <reason>", sym, consults)
			case caller != "consultInjector" && c.Name == "Inject" && isInjectShaped(interproc.CalleeFunc(pass, c.Pos.(*ast.CallExpr))):
				if pass.Allowlisted(info.File, c.Pos.Pos()) {
					continue
				}
				pass.Reportf(c.Pos.Pos(),
					"injector Inject called from %s; only the engine's consultInjector funnel may consult the injector, or annotate //lint:barrier-ok <reason>", sym)
			}
		}
	}
}

// isInjectShaped reports whether fn is a method Inject(InjectCtx)
// Verdict, matched by type names rather than package identity.
func isInjectShaped(fn *types.Func) bool {
	if fn == nil || fn.Name() != "Inject" {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || sig.Params().Len() != 1 || sig.Results().Len() != 1 {
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

// checkRNGPaths applies rule 3's draw half: every draw from an injector
// type's *rand.Rand field must be reachable from that type's Inject
// method.
func checkRNGPaths(pass *analysis.Pass, g *interproc.Graph) {
	for _, sym := range g.Order {
		inject := g.Funcs[sym].Decl
		if inject.Recv == nil || !isInjectShaped(pass.TypesInfo.Defs[inject.Name].(*types.Func)) {
			continue
		}
		injType := strings.TrimSuffix(sym, ".Inject")
		reach := g.ReachableFrom(sym)
		for _, caller := range g.Order {
			info := g.Funcs[caller]
			if reach[caller] || pass.InTestFile(info.Decl.Pos()) {
				continue
			}
			for _, draw := range rngDraws(pass, info, injType) {
				if pass.Allowlisted(info.File, draw.Pos()) {
					continue
				}
				pass.Reportf(draw.Pos(),
					"%s draws from %s's injector RNG outside the Inject call path; a draw off the consult path shifts the whole fault schedule — route it through Inject or annotate //lint:barrier-ok <reason>",
					caller, injType)
			}
		}
	}
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
		if sel != nil && sel.Kind() == types.FieldVal && isRandRand(sel.Type()) &&
			interproc.RecvTypeName(sel.Recv()) == injType {
			out = append(out, call)
		}
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
	return ok && n.Obj().Pkg() != nil && n.Obj().Name() == "Rand" && n.Obj().Pkg().Path() == "math/rand"
}
