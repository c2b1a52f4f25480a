// Package colescape guards the engine's phase-scoped aliasing contract:
// references into pooled storage must not escape the phase that
// borrowed them.
//
// The columnar engines hand out aliases instead of copies on their fast
// paths — MemCtx.ReadBlock returns a sub-slice of the live memory
// image, Mem.Data/BitMem.Words expose the backing store, and
// Route.Incoming returns a superstep's pooled inbox row. All of them
// are documented "do not retain": the next phase commit rewrites the
// storage in place (or swaps it into the ping-pong spare), so a
// reference stashed in a struct field, a global, a channel or a return
// value silently starts reading the *next* phase's state — the exact
// kind of nondeterminism the determinism suite can only catch if a
// sampled schedule happens to expose it.
//
// The analyzer runs a forward CFG taint: column-derived values (results
// of ReadBlock/Data/Words/Incoming-shaped calls, and reads of the
// fields declared //repro:pooled) taint locals they flow into, and
// a tainted value hitting an escape sink — a store to a non-pooled
// field, global or dereference, a channel send, a return, a composite
// literal, or a call argument a callee summary says escapes — is
// reported. Only reference-shaped values taint (slices, pointers, maps,
// interfaces, and structs containing them; strings and scalars are
// copies by construction), so ranging int64 cells out of a block is
// free. Element-wise copies (append(dst, src...), copy) are copies, not
// escapes. Writes INTO pooled fields are engine pool management and are
// the barrier analyzer's business, not an escape.
//
// Interprocedural flow rides per-function facts: "e<i>" (parameter i
// escapes) and "r<i>" (parameter i flows to the return value), so
// passing a borrowed block to a helper that stores it is flagged at the
// call site, while identity-shaped helpers stay transparent.
//
// Suppression: //lint:colescape-ok <reason>. The engine's own accessor
// returns (ReadBlock, Data, Words, Incoming) are the intended, documented
// exemptions: they are the borrow points whose callers this analyzer
// polices.
package colescape

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/interproc"
)

// Analyzer flags phase-scoped engine references escaping the phase.
var Analyzer = &analysis.Analyzer{
	Name: "colescape",
	Doc:  "flag references into //repro:pooled engine columns escaping the phase (stores, sends, returns)",
	Run:  run,
}

// sourceMethods are the borrow points: methods handing out aliases into
// pooled storage, matched by name + "returns a reference" shape so the
// check also covers fixtures and future engines without importing repro
// packages. Pooled fields themselves are declared at the field, with a
// //repro:pooled marker.
var sourceMethods = map[string]bool{
	"ReadBlock": true, "Data": true, "Words": true, "Incoming": true,
}

// Taint bits: bit 0 marks a locally-borrowed column reference; bit i+1
// marks a value derived from parameter i (for escape summaries).
const localBit = 1

func paramBit(i int) uint64 { return 1 << uint(i+1) }

// summary is one function's escape summary while the package-local
// fixpoint runs.
type summary struct {
	escapes map[int]bool // parameter index stores its argument beyond the call
	returns map[int]bool // parameter index flows to a return value
}

func (s *summary) payload() string {
	var parts []string
	for _, i := range sortedKeys(s.escapes) {
		parts = append(parts, fmt.Sprintf("e%d", i))
	}
	for _, i := range sortedKeys(s.returns) {
		parts = append(parts, fmt.Sprintf("r%d", i))
	}
	return strings.Join(parts, ",")
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m { //lint:maporder-ok keys are sorted before use
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func parsePayload(p string) summary {
	s := summary{escapes: map[int]bool{}, returns: map[int]bool{}}
	for _, part := range strings.Split(p, ",") {
		var i int
		if _, err := fmt.Sscanf(part, "e%d", &i); err == nil && strings.HasPrefix(part, "e") {
			s.escapes[i] = true
		} else if _, err := fmt.Sscanf(part, "r%d", &i); err == nil && strings.HasPrefix(part, "r") {
			s.returns[i] = true
		}
	}
	return s
}

func run(pass *analysis.Pass) error {
	pass.CheckDirectives()
	g := interproc.Build(pass)
	pooled := pass.Marked("pooled")

	// Package-local fixpoint over escape summaries: re-analyze until no
	// function's summary grows (callee summaries sharpen caller taint),
	// then a final reporting pass with the stable summaries.
	summaries := make(map[string]*summary, len(g.Funcs))
	for _, sym := range g.Order {
		summaries[sym] = &summary{escapes: map[int]bool{}, returns: map[int]bool{}}
	}
	for changed := true; changed; {
		changed = false
		for _, sym := range g.Order {
			info := g.Funcs[sym]
			if pass.InTestFile(info.Decl.Pos()) {
				continue
			}
			s := analyzeFunc(pass, g, summaries, pooled, info, nil)
			if grewSummary(summaries[sym], s) {
				summaries[sym] = s
				changed = true
			}
		}
	}
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		if pass.InTestFile(info.Decl.Pos()) {
			continue
		}
		analyzeFunc(pass, g, summaries, pooled, info, func(pos token.Pos, what, how string) {
			if pass.Allowlisted(info.File, pos) {
				return
			}
			pass.Reportf(pos,
				"%s, derived from pooled engine storage, escapes the phase via %s; copy the data before retaining it or annotate //lint:colescape-ok <reason>",
				what, how)
		})
		if p := summaries[sym].payload(); p != "" {
			pass.ExportFact(sym, p)
		}
	}
	return nil
}

func grewSummary(old, next *summary) bool {
	if len(next.escapes) > len(old.escapes) || len(next.returns) > len(old.returns) {
		return true
	}
	for i := range next.escapes { //lint:maporder-ok pure subset test
		if !old.escapes[i] {
			return true
		}
	}
	for i := range next.returns { //lint:maporder-ok pure subset test
		if !old.returns[i] {
			return true
		}
	}
	return false
}

// analyzeFunc runs the escape taint over one function. When report is
// nil only the summary is computed (fixpoint iterations); the final pass
// reports sinks hit by locally-borrowed taint.
func analyzeFunc(pass *analysis.Pass, g *interproc.Graph, summaries map[string]*summary, pooled map[types.Object]bool, info *interproc.FuncInfo, report func(pos token.Pos, what, how string)) *summary {
	fd := info.Decl
	out := &summary{escapes: map[int]bool{}, returns: map[int]bool{}}
	params := paramObjects(pass, fd)

	a := &analyzer{
		pass: pass, g: g, summaries: summaries, params: params, pooled: pooled,
		out: out, report: report, body: fd.Body,
	}
	analyzeBody := func(name string, body *ast.BlockStmt) {
		graph := cfg.New(name, body)
		reach := graph.Reachable()
		in := graph.Forward(a.transfer)
		for _, b := range graph.Blocks {
			if !reach[b] {
				continue
			}
			state := in[b].Clone()
			for _, n := range b.Nodes {
				a.checkSinks(n, state)
				a.transfer(n, state)
			}
		}
	}
	analyzeBody(info.Sym, fd.Body)
	// The engine's phase work runs inside dispatch closures (ForAll's
	// and Superstep's); each literal gets its own graph (the replay above does not descend
	// into literals). Captured parameter objects still resolve through
	// a.params, so closure sinks feed the enclosing summary.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			analyzeBody(info.Sym+".func", lit.Body)
		}
		return true
	})
	return out
}

// paramObjects maps each named parameter object to its index.
func paramObjects(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]int {
	params := make(map[types.Object]int)
	i := 0
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				i++
				continue
			}
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					params[obj] = i
				}
				i++
			}
		}
	}
	return params
}

type analyzer struct {
	pass      *analysis.Pass
	g         *interproc.Graph
	summaries map[string]*summary
	params    map[types.Object]int
	pooled    map[types.Object]bool
	out       *summary
	report    func(pos token.Pos, what, how string)
	body      *ast.BlockStmt
}

// transfer propagates taint through assignments and range statements.
// Monotone: bits are only added (the Forward solver's contract).
func (a *analyzer) transfer(n ast.Node, state cfg.Facts) {
	switch st := n.(type) {
	case *ast.AssignStmt:
		if len(st.Lhs) == len(st.Rhs) {
			for i, lhs := range st.Lhs {
				a.flowInto(lhs, a.taintOf(st.Rhs[i], state), state)
			}
		} else if len(st.Rhs) == 1 {
			// x, y := f(): every lhs inherits the call's taint.
			t := a.taintOf(st.Rhs[0], state)
			for _, lhs := range st.Lhs {
				a.flowInto(lhs, t, state)
			}
		}
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) != len(vs.Names) {
				continue
			}
			for i, name := range vs.Names {
				a.flowInto(name, a.taintOf(vs.Values[i], state), state)
			}
		}
	case *ast.RangeStmt:
		// Ranging a tainted container yields tainted reference elements.
		t := a.taintOf(st.X, state)
		if t == 0 || st.Value == nil {
			return
		}
		if a.refLike(a.pass.TypesInfo.TypeOf(st.Value)) {
			a.flowInto(st.Value, t, state)
		}
	}
}

// flowInto records taint flowing into an identifier target. Non-ident
// targets (field stores, index stores) are sinks, handled in checkSinks.
func (a *analyzer) flowInto(lhs ast.Expr, taint uint64, state cfg.Facts) {
	if taint == 0 {
		return
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := a.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return
	}
	state[obj] |= taint
}

// taintOf computes the taint mask of an expression under the current
// state: borrow-point calls and pooled-field reads introduce localBit;
// identifiers carry their state (parameters carry their param bit);
// slicing/indexing/dereference preserve taint when the result is still
// reference-shaped; callee "r<i>" summaries flow argument taint through
// to call results.
func (a *analyzer) taintOf(e ast.Expr, state cfg.Facts) uint64 {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := a.pass.TypesInfo.ObjectOf(x)
		if obj == nil {
			return 0
		}
		t := state[obj]
		if i, ok := a.params[obj]; ok && a.refLike(obj.Type()) {
			t |= paramBit(i)
		}
		return t
	case *ast.SelectorExpr:
		if a.isPooledField(x) {
			return localBit
		}
		// Selecting a field off a tainted struct keeps the taint when
		// the field itself is reference-shaped.
		if a.refLike(a.pass.TypesInfo.TypeOf(x)) {
			return a.taintOf(x.X, state)
		}
		return 0
	case *ast.IndexExpr:
		if !a.refLike(a.pass.TypesInfo.TypeOf(x)) {
			return 0
		}
		return a.taintOf(x.X, state)
	case *ast.SliceExpr:
		return a.taintOf(x.X, state)
	case *ast.StarExpr:
		if !a.refLike(a.pass.TypesInfo.TypeOf(x)) {
			return 0
		}
		return a.taintOf(x.X, state)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return a.taintOf(x.X, state)
		}
		return 0
	case *ast.CallExpr:
		return a.callTaint(x, state)
	case *ast.CompositeLit:
		// A literal wrapping a tainted reference is itself tainted.
		var t uint64
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t |= a.taintOf(el, state)
		}
		return t
	}
	return 0
}

// callTaint computes the taint of a call result: borrow-point methods
// introduce it, conversions preserve it, and callee summaries route
// argument taint to the result.
func (a *analyzer) callTaint(call *ast.CallExpr, state cfg.Facts) uint64 {
	// Conversion? Taint passes through.
	if tv, ok := a.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return a.taintOf(call.Args[0], state)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := a.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			// append(dst, src...) element-copies; the result aliases dst.
			if id.Name == "append" && len(call.Args) > 0 {
				return a.taintOf(call.Args[0], state)
			}
			return 0
		}
	}
	fn := interproc.CalleeFunc(a.pass, call)
	if fn == nil {
		return 0
	}
	if sourceMethods[fn.Name()] && a.returnsReference(fn) {
		return localBit
	}
	// Route argument taint through "r<i>" summaries.
	var t uint64
	s := a.calleeSummary(fn)
	for i, arg := range call.Args {
		if s.returns[i] {
			t |= a.taintOf(arg, state)
		}
	}
	return t
}

// calleeSummary resolves a callee's escape summary: same-package from
// the running fixpoint, cross-package from dependency facts.
func (a *analyzer) calleeSummary(fn *types.Func) summary {
	sym := interproc.Symbol(fn)
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if pkg == a.g.PkgPath {
		if s := a.summaries[sym]; s != nil {
			return *s
		}
		return summary{escapes: map[int]bool{}, returns: map[int]bool{}}
	}
	if payload, ok := a.pass.DepFact(pkg, sym); ok {
		return parsePayload(payload)
	}
	return summary{escapes: map[int]bool{}, returns: map[int]bool{}}
}

// returnsReference reports whether fn returns at least one
// reference-shaped value (the source-method name match alone must not
// taint a scalar accessor that happens to share a name).
func (a *analyzer) returnsReference(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if a.refLike(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// checkSinks inspects one node for escape sinks under the given state.
func (a *analyzer) checkSinks(n ast.Node, state cfg.Facts) {
	cfg.Inspect(n, false, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				var rhs ast.Expr
				if len(x.Lhs) == len(x.Rhs) {
					rhs = x.Rhs[i]
				} else if len(x.Rhs) == 1 {
					rhs = x.Rhs[0]
				}
				if rhs != nil {
					a.checkStore(lhs, rhs, state)
				}
			}
		case *ast.SendStmt:
			a.sink(x.Value, state, "channel send")
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				a.sink(r, state, "return value")
			}
		case *ast.CallExpr:
			a.checkCallArgs(x, state)
		}
		return true
	})
}

// checkStore handles one assignment pair: stores through fields,
// globals, indexes into non-local containers, and dereferences escape;
// stores into the engine's own pooled fields are pool management
// (the barrier analyzer's contract) and are exempt.
func (a *analyzer) checkStore(lhs, rhs ast.Expr, state cfg.Facts) {
	t := a.taintOf(rhs, state)
	if t == 0 {
		return
	}
	if !a.refLike(a.pass.TypesInfo.TypeOf(rhs)) {
		return
	}
	how := ""
	switch target := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := a.pass.TypesInfo.ObjectOf(target)
		if obj != nil && obj.Parent() == a.pass.Pkg.Scope() {
			how = "store to package variable " + target.Name
		}
	case *ast.SelectorExpr:
		if a.isPooledField(target) {
			return
		}
		if sel := a.pass.TypesInfo.Selections[target]; sel != nil && sel.Kind() == types.FieldVal {
			how = "store to field " + target.Sel.Name
		}
	case *ast.StarExpr:
		how = "store through pointer"
	case *ast.IndexExpr:
		// Storing into a tainted or non-local container leaks the
		// reference to whoever else holds the container.
		if base, ok := ast.Unparen(target.X).(*ast.SelectorExpr); ok && a.isPooledField(base) {
			return
		}
		switch ast.Unparen(target.X).(type) {
		case *ast.SelectorExpr:
			how = "store into field-held container"
		case *ast.Ident:
			id := ast.Unparen(target.X).(*ast.Ident)
			obj := a.pass.TypesInfo.ObjectOf(id)
			if obj != nil && obj.Parent() == a.pass.Pkg.Scope() {
				how = "store into package-level container"
			}
		}
	}
	if how == "" {
		return
	}
	if t&localBit != 0 && a.report != nil {
		a.report(lhs.Pos(), describe(rhs), how)
	}
	a.recordParamEscapes(t)
}

// checkCallArgs flags tainted arguments passed to callees whose summary
// says the parameter escapes.
func (a *analyzer) checkCallArgs(call *ast.CallExpr, state cfg.Facts) {
	fn := interproc.CalleeFunc(a.pass, call)
	if fn == nil {
		return
	}
	s := a.calleeSummary(fn)
	if len(s.escapes) == 0 {
		return
	}
	for i, arg := range call.Args {
		if !s.escapes[i] {
			continue
		}
		t := a.taintOf(arg, state)
		if t == 0 {
			continue
		}
		if t&localBit != 0 && a.report != nil {
			a.report(arg.Pos(), describe(arg), "call to "+fn.Name()+", which retains its argument")
		}
		a.recordParamEscapes(t)
	}
}

// sink reports a tainted value reaching a non-store sink and records
// parameter flow. Returns feed the "r<i>" summary rather than escapes.
func (a *analyzer) sink(e ast.Expr, state cfg.Facts, how string) {
	t := a.taintOf(e, state)
	if t == 0 {
		return
	}
	if how == "return value" {
		if t&localBit != 0 && a.report != nil {
			a.report(e.Pos(), describe(e), how)
		}
		for _, i := range sortedParamIndexes(a.params) {
			if t&paramBit(i) != 0 {
				a.out.returns[i] = true
			}
		}
		return
	}
	if t&localBit != 0 && a.report != nil {
		a.report(e.Pos(), describe(e), how)
	}
	a.recordParamEscapes(t)
}

// recordParamEscapes folds param bits of a sunk taint into the summary.
func (a *analyzer) recordParamEscapes(t uint64) {
	for _, i := range sortedParamIndexes(a.params) {
		if t&paramBit(i) != 0 {
			a.out.escapes[i] = true
		}
	}
}

func sortedParamIndexes(params map[types.Object]int) []int {
	out := make([]int, 0, len(params))
	for _, i := range params { //lint:maporder-ok indexes are sorted before use
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// isPooledField reports whether a selector reads a field declared
// //repro:pooled (of the generic declaration, for an instantiated type).
func (a *analyzer) isPooledField(sel *ast.SelectorExpr) bool {
	selection := a.pass.TypesInfo.Selections[sel]
	return selection != nil && selection.Kind() == types.FieldVal &&
		a.pooled[selection.Obj().(*types.Var).Origin()]
}

// refLike reports whether values of t alias underlying storage: slices,
// pointers, maps, channels, funcs, interfaces, type parameters
// (conservatively), and aggregates containing any of those. Strings are
// immutable and scalars are copies, so neither taints.
func (a *analyzer) refLike(t types.Type) bool {
	return refLikeDepth(t, 0)
}

func refLikeDepth(t types.Type, depth int) bool {
	if t == nil || depth > 8 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Interface:
		return true
	case *types.TypeParam:
		return true
	case *types.Array:
		return refLikeDepth(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLikeDepth(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

// describe names the escaping expression for the diagnostic.
func describe(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return fmt.Sprintf("%q", x.Name)
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
			return "result of " + sel.Sel.Name
		}
		return "call result"
	case *ast.SelectorExpr:
		return "field " + x.Sel.Name
	case *ast.SliceExpr, *ast.IndexExpr:
		return "column sub-slice"
	case *ast.UnaryExpr:
		return "column-derived pointer"
	}
	return "column-derived reference"
}
