// Package interproc is the interprocedural layer of the reprolint
// framework: a per-package call graph with stable function symbols, plus
// the propagation helpers the contract analyzers (barrier, sentinelwrap,
// costbalance, colescape) build their per-function summaries on.
//
// The design mirrors how fact-based go/analysis analyzers stay modular
// under cmd/go's build cache: each package is analyzed exactly once, its
// per-function summaries are serialized into the package's facts (.vetx)
// file through the unitchecker export-data path, and importers consult
// those summaries instead of re-analyzing the dependency. Within a
// package the graph supports fixpoint propagation (a caller inherits a
// callee's facts); across packages the analyzer supplies an `ext` hook
// that resolves a Callee against Pass.DepFact.
//
// Soundness caveats (documented in DESIGN.md §5): calls through function
// *values* (fields, parameters, stored closures) are not resolved, and
// calls through interface methods resolve to the interface method's
// symbol, not to concrete implementations — analyzers either seed
// interface methods by contract (sentinelwrap's `Violation() error`) or
// check implementations at their definition site (the barrier's
// observer rule), which closes the gap for the engine's hooks.
package interproc

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Callee is one resolved outgoing call edge.
type Callee struct {
	// PkgPath is the defining package of the callee ("" for universe
	// scope objects such as error.Error).
	PkgPath string
	// Sym is the callee's symbol: "F" for package functions, "T.M" for
	// methods (receiver base type name, pointerness erased).
	Sym string
	// Name is the bare function/method name.
	Name string
	// Iface is true when the call dispatches through an interface
	// method (the concrete target is unknown statically).
	Iface bool
	// Pos is the call site.
	Pos ast.Node
}

// FuncInfo is one declared function or method of the package.
type FuncInfo struct {
	// Sym is the function's symbol ("F" or "T.M").
	Sym string
	// Decl is the declaration; Decl.Body is non-nil.
	Decl *ast.FuncDecl
	// File is the containing file (for allowlist lookups).
	File *ast.File
	// Calls are the resolved outgoing edges, in source order. Function
	// literals inside the body are attributed to the enclosing
	// declaration (the engine dispatches its phase bodies through
	// closures handed to runPhase).
	Calls []Callee
}

// Graph is the package-local call graph.
type Graph struct {
	// PkgPath is the analyzed package's import path.
	PkgPath string
	// Order lists function symbols in declaration order (the iteration
	// order of every deterministic walk).
	Order []string
	// Funcs indexes FuncInfo by symbol.
	Funcs map[string]*FuncInfo
}

// Build constructs the call graph of the pass's package. Test files are
// included (callers filter with Pass.InTestFile where the contract
// exempts them).
func Build(pass *analysis.Pass) *Graph {
	g := &Graph{PkgPath: pass.Pkg.Path(), Funcs: make(map[string]*FuncInfo)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := &FuncInfo{Sym: Symbol(obj), Decl: fd, File: f}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := CalleeFunc(pass, call); fn != nil {
					info.Calls = append(info.Calls, Callee{
						PkgPath: pkgPathOf(fn),
						Sym:     Symbol(fn),
						Name:    fn.Name(),
						Iface:   IsInterfaceMethod(fn),
						Pos:     call,
					})
				}
				return true
			})
			g.Order = append(g.Order, info.Sym)
			g.Funcs[info.Sym] = info
		}
	}
	return g
}

// CalleeFunc resolves the statically-known target of a call expression,
// or nil for builtins, conversions and calls through function values.
func CalleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr:
		// Explicit generic instantiation f[T](...).
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	// Normalize generic instantiations to their origin so facts key on
	// one symbol per source declaration.
	return fn.Origin()
}

// Symbol returns the stable symbol of a function object: "F" for package
// functions, "T.M" for methods, where T is the receiver's base type name
// with pointerness and type arguments erased.
func Symbol(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	return RecvTypeName(sig.Recv().Type()) + "." + fn.Name()
}

// RecvTypeName reduces a receiver type to its base named-type name
// ("*Mem[V]" -> "Mem"); interface receivers reduce to the interface's
// name when named, and anonymous types to "_".
func RecvTypeName(t types.Type) string {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	switch n := t.(type) {
	case *types.Named:
		return n.Obj().Name()
	case *types.TypeParam:
		// Method on a type parameter: fall back to the constraint name.
		return n.Obj().Name()
	}
	return "_"
}

// IsInterfaceMethod reports whether fn is declared on an interface (the
// call is dynamic dispatch).
func IsInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

func pkgPathOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// Propagate computes the transitive closure of a boolean per-function
// fact over the graph: a function has the fact if local[sym] is true or
// any callee has it — same-package callees through the graph's own
// fixpoint, cross-package callees through ext (typically a Pass.DepFact
// lookup; nil treats all external calls as fact-free).
func (g *Graph) Propagate(local map[string]bool, ext func(Callee) bool) map[string]bool {
	out := make(map[string]bool, len(local))
	for sym, v := range local { //lint:maporder-ok boolean-join fixpoint is order-independent
		out[sym] = v
	}
	for changed := true; changed; {
		changed = false
		for _, sym := range g.Order {
			if out[sym] {
				continue
			}
			for _, c := range g.Funcs[sym].Calls {
				hit := false
				if c.PkgPath == g.PkgPath {
					hit = out[c.Sym]
				} else if ext != nil {
					hit = ext(c)
				}
				if hit {
					out[sym] = true
					changed = true
					break
				}
			}
		}
	}
	return out
}

// PropagateSets computes the transitive union of per-function string
// sets: a function's set is its local set joined with every callee's
// (same-package via fixpoint, cross-package via ext). Sets are
// represented as membership maps; use Members for a sorted view.
func (g *Graph) PropagateSets(local map[string]map[string]bool, ext func(Callee) []string) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(g.Funcs))
	join := func(sym string, items ...string) bool {
		changed := false
		set := out[sym]
		for _, it := range items {
			if !set[it] {
				if set == nil {
					set = make(map[string]bool)
					out[sym] = set
				}
				set[it] = true
				changed = true
			}
		}
		return changed
	}
	for sym, set := range local { //lint:maporder-ok set-union fixpoint is order-independent
		for it := range set { //lint:maporder-ok set-union fixpoint is order-independent
			join(sym, it)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, sym := range g.Order {
			for _, c := range g.Funcs[sym].Calls {
				if c.PkgPath == g.PkgPath {
					for it := range out[c.Sym] { //lint:maporder-ok set-union fixpoint is order-independent
						if join(sym, it) {
							changed = true
						}
					}
				} else if ext != nil {
					if join(sym, ext(c)...) {
						changed = true
					}
				}
			}
		}
	}
	return out
}

// ReachableFrom returns the set of package-local symbols reachable from
// the given roots over the graph's call edges (roots included).
func (g *Graph) ReachableFrom(roots ...string) map[string]bool {
	reach := make(map[string]bool)
	var visit func(sym string)
	visit = func(sym string) {
		if reach[sym] {
			return
		}
		info, ok := g.Funcs[sym]
		if !ok {
			return
		}
		reach[sym] = true
		for _, c := range info.Calls {
			if c.PkgPath == g.PkgPath {
				visit(c.Sym)
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return reach
}

// Members returns the sorted members of a set map (payload form for
// facts and diagnostics).
func Members(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for m := range set { //lint:maporder-ok members are sorted before use
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// JoinPayload encodes a sorted string set as a fact payload; DecodePayload
// inverts it.
func JoinPayload(items []string) string { return strings.Join(items, ",") }

// DecodePayload splits a fact payload produced by JoinPayload.
func DecodePayload(payload string) []string {
	if payload == "" {
		return nil
	}
	return strings.Split(payload, ",")
}
