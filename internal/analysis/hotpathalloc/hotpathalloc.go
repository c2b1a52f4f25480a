// Package hotpathalloc guards the engine's pinned-allocation contract:
// code reachable from the phase-commit entry points must not allocate.
//
// The columnar commit engines (DESIGN.md §4) pin steady-state phases to
// ≤8 allocations per operation, and the BENCH_pr7 envelope (≈21 ns per
// request at 21M requests/phase) only holds because the commit path runs
// entirely over pooled struct-of-arrays scratch. An allocation slipped
// into that path — a closure capture, a boxed interface argument, a
// fresh slice in a helper three calls down — shows up as a benchmark
// regression long after the review that introduced it. This analyzer
// flags it at the line instead.
//
// Hot roots are the functions declared //repro:hot (in the engine: the
// barrier Core.commit, its observer record hand-off Core.observeRecord
// and Sends.StageBatch) plus, in every package, the model
// callbacks the barrier dispatches into (Apply(mem, addrs, vals) and
// Render(v) — matched structurally so fixtures and future models are
// covered without importing the engine). Everything
// reachable from a root in the package's call graph is hot, where a
// call through one of the package's own interfaces reaches every package
// method of that name (the barrier reaches the engines' column sources
// only through an interface); allocation sites in hot functions are
// reported, and every function additionally exports an "allocates" fact
// so call sites into allocating dependencies are flagged in the caller.
//
// Flagged allocation sites: make/new, slice and map composite literals,
// address-taken composite literals, function literals (closure capture),
// go statements, implicit interface boxing and variadic argument slices,
// string concatenation and string<->[]byte conversions, calls into the
// allocating corners of fmt/strconv/strings/sort, and append to a slice
// that is not staged storage (a fresh local, rather than a field, a
// parameter, or a value derived from one — pooled columns and
// caller-provided buffers are staged by contract; growth beyond their
// high-water capacity is the pool's own responsibility). Dead code
// (behind a return/panic) is skipped via the CFG.
//
// Suppression: //lint:hotpathalloc-ok <reason>. An allowlisted site is
// excluded from the function's exported fact too — the reason vouches
// for the allocation, so callers are not re-flagged for it. The
// abort/violation paths (failf, fmt.Errorf on poisoning) and the
// per-chunk dispatch closures are the intended, documented exemptions.
package hotpathalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/interproc"
)

// Analyzer flags allocation on the engine's hot commit path.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag allocation in code reachable from //repro:hot roots (commit/observer record/StageBatch) and model callbacks",
	Run:  run,
}

// knownAllocCalls lists stdlib calls that allocate on every (or the
// interesting) path, keyed "pkgpath.Func". The list is intentionally the
// allocating corners the repo actually brushes against, not a catalogue.
var knownAllocCalls = map[string]bool{
	"fmt.Errorf": true, "fmt.Sprintf": true, "fmt.Sprint": true,
	"fmt.Sprintln": true, "fmt.Fprintf": true, "fmt.Appendf": true,
	"strconv.Itoa": true, "strconv.FormatInt": true, "strconv.FormatUint": true,
	"strconv.FormatFloat": true, "strconv.Quote": true,
	"strings.Join": true, "strings.Repeat": true, "strings.Split": true,
	"sort.Slice": true, "sort.SliceStable": true,
	"errors.New": true, "errors.Join": true,
}

// site is one allocation site of a function body.
type site struct {
	pos  token.Pos
	desc string
}

func run(pass *analysis.Pass) error {
	pass.CheckDirectives()
	g := interproc.Build(pass)

	// Local allocation sites per function, allowlisted ones dropped
	// (the directive's reason vouches for them, locally and in facts).
	local := make(map[string][]site, len(g.Funcs))
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		if pass.InTestFile(info.Decl.Pos()) {
			continue
		}
		var sites []site
		collectSites(pass, info.Decl.Name.Name, info.Decl.Body, func(s site) {
			if !pass.Allowlisted(info.File, s.pos) {
				sites = append(sites, s)
			}
		})
		local[sym] = sites
	}

	// Transitive "allocates" summaries: a function allocates if it has a
	// local site or calls (same-package or via dependency facts) a
	// function that does. Exported for every function so importers can
	// flag hot call sites into this package.
	reason := make(map[string]string, len(g.Funcs))
	for _, sym := range g.Order {
		if s := local[sym]; len(s) > 0 {
			reason[sym] = fmt.Sprintf("%s (%s)", s[0].desc, shortPos(pass.Fset, s[0].pos))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, sym := range g.Order {
			if reason[sym] != "" {
				continue
			}
			for _, c := range g.Funcs[sym].Calls {
				why := ""
				if c.PkgPath == g.PkgPath {
					if reason[c.Sym] != "" {
						why = fmt.Sprintf("calls %s, which allocates", c.Sym)
					}
				} else if payload, ok := pass.DepFact(c.PkgPath, c.Sym); ok {
					why = fmt.Sprintf("calls %s.%s: %s", c.PkgPath, c.Sym, payload)
				}
				if why != "" {
					reason[sym] = why
					changed = true
					break
				}
			}
		}
	}
	for _, sym := range g.Order {
		if r := reason[sym]; r != "" {
			pass.ExportFact(sym, r)
		}
	}

	// Hot set: everything reachable from a root, attributed to the first
	// root (in declaration order) that reaches it for the diagnostic.
	rootOf := make(map[string]string)
	for _, root := range hotRoots(pass, g) {
		for sym := range reachable(g, root) { //lint:maporder-ok every member gets the same root; roots iterate in declaration order
			if _, seen := rootOf[sym]; !seen {
				rootOf[sym] = root
			}
		}
	}

	for _, sym := range g.Order {
		root, hot := rootOf[sym]
		if !hot {
			continue
		}
		info := g.Funcs[sym]
		if pass.InTestFile(info.Decl.Pos()) {
			continue
		}
		for _, s := range local[sym] {
			pass.Reportf(s.pos,
				"%s on the hot commit path (%s is reachable from %s); hoist it to pooled scratch or annotate //lint:hotpathalloc-ok <reason>",
				s.desc, sym, root)
		}
		// Same-package callees are hot themselves and report their own
		// sites; cross-package callees are flagged at the call site,
		// where the caller can fix or vouch.
		for _, c := range info.Calls {
			if c.PkgPath == g.PkgPath || c.Iface {
				continue
			}
			payload, ok := pass.DepFact(c.PkgPath, c.Sym)
			if !ok || pass.Allowlisted(info.File, c.Pos.Pos()) {
				continue
			}
			pass.Reportf(c.Pos.Pos(),
				"call to %s.%s on the hot commit path (%s is reachable from %s): %s; hoist the allocation or annotate //lint:hotpathalloc-ok <reason>",
				c.PkgPath, c.Sym, sym, root, payload)
		}
	}
	return nil
}

// hotRoots returns the hot entry-point symbols declared in this package:
// the functions marked //repro:hot, and model callbacks (matched
// structurally) everywhere.
func hotRoots(pass *analysis.Pass, g *interproc.Graph) []string {
	marked := pass.Marked("hot")
	var roots []string
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		if pass.InTestFile(info.Decl.Pos()) {
			continue
		}
		if marked[pass.TypesInfo.Defs[info.Decl.Name]] || isModelCallback(pass, info.Decl) {
			roots = append(roots, sym)
		}
	}
	return roots
}

// reachable returns the package-local symbols reachable from root
// (included). A call through an interface declared in the package
// reaches every package method of that name: name matching
// over-approximates the implementations, which only widens the hot set.
func reachable(g *interproc.Graph, root string) map[string]bool {
	methods := make(map[string][]string)
	for _, sym := range g.Order {
		if d := g.Funcs[sym].Decl; d.Recv != nil {
			methods[d.Name.Name] = append(methods[d.Name.Name], sym)
		}
	}
	seen := make(map[string]bool)
	var visit func(sym string)
	visit = func(sym string) {
		info, ok := g.Funcs[sym]
		if !ok || seen[sym] {
			return
		}
		seen[sym] = true
		for _, c := range info.Calls {
			switch {
			case c.PkgPath != g.PkgPath:
			case c.Iface:
				for _, m := range methods[c.Name] {
					visit(m)
				}
			default:
				visit(c.Sym)
			}
		}
	}
	visit(root)
	return seen
}

// isModelCallback matches the engine's model hooks structurally: the
// barrier calls Apply(mem, addrs []int32, vals) and Render(v) string
// through the model interfaces, so implementations are hot at their
// definition site even though the dispatch is dynamic.
func isModelCallback(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return false
	}
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	params := sig.Params()
	switch fd.Name.Name {
	case "Apply":
		if params.Len() != 3 {
			return false
		}
		s, ok := params.At(1).Type().(*types.Slice)
		return ok && types.Identical(s.Elem(), types.Typ[types.Int32])
	case "Render":
		return params.Len() == 1 && sig.Results().Len() == 1 &&
			types.Identical(sig.Results().At(0).Type(), types.Typ[types.String])
	}
	return false
}

// collectSites finds the allocation sites of one function body, CFG-aware
// twice over: dead blocks are skipped, and append destinations are
// classified with a forward staged-storage taint (a local assigned from
// a field, parameter or another staged value is staged). Function
// literals are flagged as sites themselves and then analyzed recursively
// with their own sub-graph, since their statements are not nodes of the
// enclosing graph.
func collectSites(pass *analysis.Pass, name string, body *ast.BlockStmt, emit func(site)) {
	g := cfg.New(name, body)
	reach := g.Reachable()

	const staged = 1
	transfer := func(n ast.Node, state cfg.Facts) {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return
			}
			for i, lhs := range st.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil && isStaged(pass, body, st.Rhs[i], state) {
					state[obj] |= staged
				}
			}
		case *ast.RangeStmt:
			// Ranging over a staged slice-of-slices yields staged rows.
			if st.Value == nil || !isStaged(pass, body, st.X, state) {
				return
			}
			if id, ok := ast.Unparen(st.Value).(*ast.Ident); ok {
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
					state[obj] |= staged
				}
			}
		}
	}
	in := g.Forward(transfer)

	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		state := in[b].Clone()
		for _, n := range b.Nodes {
			cfg.Inspect(n, false, func(m ast.Node) bool {
				if lit, ok := m.(*ast.FuncLit); ok && m != n {
					emit(site{lit.Pos(), "function literal (closure capture) allocates"})
					collectSites(pass, name+".func", lit.Body, emit)
					return false
				}
				checkNode(pass, body, m, state, emit)
				return true
			})
			transfer(n, state)
		}
	}
}

// checkNode emits the allocation sites rooted at one sub-node.
func checkNode(pass *analysis.Pass, body *ast.BlockStmt, n ast.Node, state cfg.Facts, emit func(site)) {
	switch x := n.(type) {
	case *ast.GoStmt:
		emit(site{x.Pos(), "go statement allocates (new goroutine)"})
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
				emit(site{x.Pos(), "address-taken composite literal allocates"})
			}
		}
	case *ast.CompositeLit:
		switch pass.TypesInfo.TypeOf(x).Underlying().(type) {
		case *types.Slice:
			emit(site{x.Pos(), "slice literal allocates"})
		case *types.Map:
			emit(site{x.Pos(), "map literal allocates"})
		}
	case *ast.BinaryExpr:
		if x.Op == token.ADD && isStringType(pass.TypesInfo.TypeOf(x)) {
			emit(site{x.Pos(), "string concatenation allocates"})
		}
	case *ast.CallExpr:
		checkCall(pass, body, x, state, emit)
	}
}

// checkCall classifies one call expression: builtins (make/new/append),
// conversions, known allocating stdlib calls, and implicit allocation at
// the call boundary (boxing, variadic slices).
func checkCall(pass *analysis.Pass, body *ast.BlockStmt, call *ast.CallExpr, state cfg.Facts, emit func(site)) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				emit(site{call.Pos(), "make allocates"})
			case "new":
				emit(site{call.Pos(), "new allocates"})
			case "append":
				if len(call.Args) > 0 && !isStaged(pass, body, call.Args[0], state) {
					emit(site{call.Pos(), "append to a non-staged slice allocates"})
				}
			}
			return
		}
	}
	// Conversions: string <-> []byte/[]rune copy their payload.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, pass.TypesInfo.TypeOf(call.Args[0])
		if isStringType(dst) != isStringType(src) && (isStringType(dst) || isStringType(src)) {
			if _, slice := dst.Underlying().(*types.Slice); slice || isStringType(dst) {
				if _, srcSlice := src.Underlying().(*types.Slice); srcSlice || isStringType(src) {
					emit(site{call.Pos(), "string/byte-slice conversion allocates"})
				}
			}
		}
		return
	}
	fn := interproc.CalleeFunc(pass, call)
	if fn == nil {
		return
	}
	key := fn.Name()
	if fn.Pkg() != nil {
		key = fn.Pkg().Path() + "." + fn.Name()
	}
	if knownAllocCalls[key] {
		emit(site{call.Pos(), "call to " + key + " allocates"})
		return
	}
	// Implicit allocation at the call boundary. Skipped for callees the
	// list already flags — one finding per call is enough.
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
		emit(site{call.Pos(), "variadic call to " + fn.Name() + " allocates its argument slice"})
		return
	}
	for i, arg := range call.Args {
		if i >= sig.Params().Len() {
			break
		}
		pt := sig.Params().At(i).Type()
		if !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) || isBasicUntypedNil(pass, arg) {
			continue
		}
		if _, ptr := at.Underlying().(*types.Pointer); ptr {
			continue // a pointer fits the interface word; no box
		}
		emit(site{arg.Pos(), "implicit interface conversion (boxing) allocates in call to " + fn.Name()})
	}
}

// isStaged reports whether a slice expression is staged storage: rooted
// at a field selector (pooled columns), declared outside the analyzed
// body (parameters, receivers, captured variables — whose creation was
// flagged where it happened), or CFG-tainted from one of those.
func isStaged(pass *analysis.Pass, body *ast.BlockStmt, e ast.Expr, state cfg.Facts) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return true
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(x)
			if obj == nil {
				return false
			}
			if obj.Pos() < body.Pos() || obj.Pos() > body.End() {
				return true
			}
			return state[obj]&1 != 0
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" && len(x.Args) > 0 {
					e = x.Args[0]
					continue
				}
			}
			return false
		default:
			return false
		}
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isBasicUntypedNil(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// shortPos renders "file.go:123" for fact payloads.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
