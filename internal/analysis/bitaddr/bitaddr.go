// Package bitaddr guards the packed bit-address contract of the
// bit-packed Boolean memories (DESIGN.md §4): every value stored into a
// BitMem write column is derived as addr<<1|bit from a range-checked
// address, and packed values are only ever consumed by unpacking.
//
// BitMem's write column overlays address and payload in one int32 —
// addr<<1|bit — which is what keeps the Boolean commit at one column
// pass, and is also why the memory is capped at 2^30 cells (int32 loses
// a bit to the payload; InitBits enforces the cap at construction). The
// encoding is invisible to the type system: a packed int32 and a plain
// cell address mix silently, and a single raw arithmetic step on a
// packed value — sharding by pk>>k instead of (pk>>1)>>k', comparing a
// packed value against a cell count, indexing a column with it — reads
// address bits shifted into the payload position and corrupts a commit
// in a way only a large, adversarial test would notice.
//
// The analyzer therefore tracks packed values with a forward CFG taint:
// reads of the packed columns (the writes field read through a BitCtx
// shaped type, and ranges/indexes over it) are packed sources, and a
// packed value
// may only be unpacked (>>1, &1),
// bit-or-ed with the payload (|1), compared, copied, or appended back
// into a packed column. Any other arithmetic or an indexing use is
// reported. Conversely every value stored into a packed column must be
// provably pack-shaped: a syntactic addr<<1 (optionally |bit) whose
// address operand is range-checked on every path from the function
// entry (checked by deleting the CFG blocks carrying a comparison on
// the address and asking whether the pack site is still reachable), a
// value read from another packed column, or a variable holding one of
// those. Raw values staged into the column are reported where they are
// staged.
//
// Suppression: //lint:bitaddr-ok <reason>.
package bitaddr

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/interproc"
)

// Analyzer verifies the addr<<1|bit packing discipline of BitMem columns.
var Analyzer = &analysis.Analyzer{
	Name: "bitaddr",
	Doc:  "flag raw arithmetic on packed addr<<1|bit values and unchecked addresses entering packed columns",
	Run:  run,
}

// packedColumns names the fields holding packed addr<<1|bit values, by
// the type they are read through rather than the type declaring them:
// the engine's write column is one cursor field that a word store fills
// with plain addresses and the packed store (BitCtx) with packed
// entries. Matching is structural, as in the other engine analyzers, so
// fixtures and future engines match without importing repro packages;
// a test checks that each entry still exists in the engine.
var packedColumns = map[string]map[string]bool{
	"BitCtx": {"writes": true},
}

// Taint bits.
const (
	packedBit  = 1 // value read from a packed column
	blessedBit = 2 // value built by a recognized addr<<1|bit pack site
)

func run(pass *analysis.Pass) error {
	pass.CheckDirectives()
	g := interproc.Build(pass)
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		if pass.InTestFile(info.Decl.Pos()) {
			continue
		}
		checkFunc(pass, info)
	}
	return nil
}

type checker struct {
	pass  *analysis.Pass
	info  *interproc.FuncInfo
	graph *cfg.Graph
	// packDef records, per variable object, the pack site that defined
	// it (for the guard check at store time) — populated by transfer.
	packDef map[types.Object]*packSite
	// block is the block currently being replayed (guard checks need
	// the pack site's block).
	block *cfg.Block
}

// packSite is one syntactic addr<<1(|bit) expression.
type packSite struct {
	expr  *ast.BinaryExpr
	base  types.Object // the address operand's object, if an identifier
	block *cfg.Block
}

func checkFunc(pass *analysis.Pass, info *interproc.FuncInfo) {
	checkBody(pass, info, info.Sym, info.Decl.Body)
	// The engine stages its packed writes inside sched.Blocks worker
	// closures; each function literal gets its own graph (the replay
	// above does not descend into literals).
	ast.Inspect(info.Decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkBody(pass, info, info.Sym+".func", lit.Body)
		}
		return true
	})
}

func checkBody(pass *analysis.Pass, info *interproc.FuncInfo, name string, body *ast.BlockStmt) {
	c := &checker{
		pass:    pass,
		info:    info,
		packDef: make(map[types.Object]*packSite),
	}
	c.graph = cfg.New(name, body)
	reach := c.graph.Reachable()
	// Pre-pass: record every pack-definition site with its block, so
	// the guard check can ask reachability questions about it during
	// replay regardless of block order.
	for _, b := range c.graph.Blocks {
		for _, n := range b.Nodes {
			st, ok := n.(*ast.AssignStmt)
			if !ok || len(st.Lhs) != len(st.Rhs) {
				continue
			}
			for i, lhs := range st.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := identObj(pass, id)
				if obj == nil {
					continue
				}
				if ps := c.packExpr(st.Rhs[i]); ps != nil && c.packDef[obj] == nil {
					ps.block = b
					c.packDef[obj] = ps
				}
			}
		}
	}
	in := c.graph.Forward(c.transfer)
	for _, b := range c.graph.Blocks {
		if !reach[b] {
			continue
		}
		c.block = b
		state := in[b].Clone()
		for _, n := range b.Nodes {
			c.checkNode(n, state)
			c.transfer(n, state)
		}
	}
}

// transfer propagates packed/blessed taint through assignments and
// ranges; it also records pack-definition sites for the guard check.
// Monotone (bits only added), per the Forward contract.
func (c *checker) transfer(n ast.Node, state cfg.Facts) {
	switch st := n.(type) {
	case *ast.AssignStmt:
		if len(st.Lhs) != len(st.Rhs) {
			return
		}
		for i, lhs := range st.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := identObj(c.pass, id)
			if obj == nil {
				continue
			}
			rhs := st.Rhs[i]
			if c.packExpr(rhs) != nil {
				state[obj] |= blessedBit
				continue
			}
			state[obj] |= c.taintOf(rhs, state)
		}
	case *ast.RangeStmt:
		if st.Value == nil {
			return
		}
		if c.taintOf(st.X, state)&packedBit == 0 && !c.isPackedColumn(st.X) {
			return
		}
		if id, ok := ast.Unparen(st.Value).(*ast.Ident); ok {
			if obj := identObj(c.pass, id); obj != nil {
				state[obj] |= packedBit
			}
		}
	}
}

// taintOf computes the packed-taint of an expression: reads of packed
// columns and of tainted variables carry taint; unpacking (>>1, &1)
// deliberately does NOT — the result is a plain address or payload.
func (c *checker) taintOf(e ast.Expr, state cfg.Facts) uint64 {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		if obj := identObj(c.pass, x); obj != nil {
			return state[obj]
		}
	case *ast.SelectorExpr:
		if c.isPackedColumn(x) {
			return packedBit
		}
	case *ast.IndexExpr:
		if c.isPackedColumn(x.X) {
			return packedBit
		}
		return 0
	case *ast.SliceExpr:
		// Re-slicing a packed column (the c.writes[:0] reset idiom)
		// stays packed.
		return c.taintOf(x.X, state)
	case *ast.CallExpr:
		// Conversions preserve packedness (int32(pk), int(pk)).
		if tv, ok := c.pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return c.taintOf(x.Args[0], state)
		}
	}
	return 0
}

// isPackedColumn reports whether e reads a packed write-column field
// (directly or through one level of indexing: c.writes[k]).
func (c *checker) isPackedColumn(e ast.Expr) bool {
	e = ast.Unparen(e)
	if idx, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(idx.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selection := c.pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return false
	}
	return packedColumns[interproc.RecvTypeName(selection.Recv())][selection.Obj().Name()]
}

// packExpr recognizes the blessed packing shape: base<<1 or base<<1|bit
// (any |-composition where one side is the shift). Returns the site
// with the address operand's object resolved, or nil.
func (c *checker) packExpr(e ast.Expr) *packSite {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	if be.Op == token.OR {
		if ps := c.shiftSite(be.X); ps != nil {
			return ps
		}
		return c.shiftSite(be.Y)
	}
	return c.shiftSite(be)
}

// shiftSite matches base<<1 and resolves the base identifier through
// conversions (int32(addr)<<1 packs addr).
func (c *checker) shiftSite(e ast.Expr) *packSite {
	be, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || be.Op != token.SHL || !isIntLit(be.Y, "1") {
		return nil
	}
	base := ast.Unparen(be.X)
	for {
		call, ok := base.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			break
		}
		tv, ok := c.pass.TypesInfo.Types[call.Fun]
		if !ok || !tv.IsType() {
			break
		}
		base = ast.Unparen(call.Args[0])
	}
	ps := &packSite{expr: be}
	if id, ok := base.(*ast.Ident); ok {
		if obj := identObj(c.pass, id); obj != nil {
			ps.base = obj
		}
	}
	return ps
}

// checkNode inspects one replayed node for misuse of packed values and
// for raw stores into packed columns.
func (c *checker) checkNode(n ast.Node, state cfg.Facts) {
	cfg.Inspect(n, false, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.AssignStmt:
			c.checkColumnStores(x, state)
			// Op-assignments on packed variables: only |= 1 is part of
			// the packing idiom.
			if x.Tok != token.ASSIGN && x.Tok != token.DEFINE && len(x.Lhs) == 1 {
				t := c.taintOf(x.Lhs[0], state) | c.defTaint(x.Lhs[0], state)
				if t != 0 && !(x.Tok == token.OR_ASSIGN && isIntLit(x.Rhs[0], "1")) {
					c.reportRaw(x.Pos(), x.Tok.String())
				}
			}
		case *ast.BinaryExpr:
			c.checkArithmetic(x, state)
		case *ast.IndexExpr:
			if c.exprPacked(x.Index, state) {
				c.report(x.Index.Pos(),
					"packed addr<<1|bit value used as a raw index; unpack with >>1 first")
			}
		case *ast.CallExpr:
			c.checkColumnAppend(x, state)
		}
		return true
	})
}

// defTaint returns the blessed bit for identifiers with a recorded pack
// definition (op-assign checks run on the packing variable itself).
func (c *checker) defTaint(e ast.Expr, state cfg.Facts) uint64 {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return 0
	}
	obj := identObj(c.pass, id)
	if obj == nil {
		return 0
	}
	return state[obj] & blessedBit
}

// exprPacked reports whether an expression carries packed (unblessed
// consumption matters only for column-sourced values) taint.
func (c *checker) exprPacked(e ast.Expr, state cfg.Facts) bool {
	return c.taintOf(e, state)&packedBit != 0
}

// checkArithmetic flags raw arithmetic with a packed operand. Allowed:
// >>1 and &1 (unpacking), |1 (setting the payload bit), and pure
// comparisons; everything else decodes address bits in place.
func (c *checker) checkArithmetic(be *ast.BinaryExpr, state cfg.Facts) {
	xPacked := c.exprPacked(be.X, state)
	yPacked := c.exprPacked(be.Y, state)
	if !xPacked && !yPacked {
		return
	}
	switch be.Op {
	case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		return // comparisons don't decode the value
	case token.SHR:
		if xPacked && isIntLit(be.Y, "1") {
			return // pk>>1: the unpack
		}
	case token.AND:
		if xPacked && isIntLit(be.Y, "1") || yPacked && isIntLit(be.X, "1") {
			return // pk&1: the payload
		}
	case token.OR:
		if xPacked && isIntLit(be.Y, "1") || yPacked && isIntLit(be.X, "1") {
			return // pk|1: setting the payload bit
		}
	case token.LAND, token.LOR:
		return // boolean context; operands are comparisons already checked
	}
	c.reportRaw(be.OpPos, be.Op.String())
}

// checkColumnStores verifies that values assigned into packed columns
// are pack-derived.
func (c *checker) checkColumnStores(st *ast.AssignStmt, state cfg.Facts) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, lhs := range st.Lhs {
		if !c.isPackedColumn(lhs) {
			continue
		}
		c.checkColumnValue(st.Rhs[i], state)
	}
}

// checkColumnAppend verifies append(packedColumn, v...) stores only
// pack-derived values.
func (c *checker) checkColumnAppend(call *ast.CallExpr, state cfg.Facts) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) < 2 {
		return
	}
	if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	if !c.isPackedColumn(call.Args[0]) {
		return
	}
	if call.Ellipsis != token.NoPos {
		// append(col, otherCol...): a column-to-column copy is fine;
		// anything else must itself be a packed column.
		if !c.isPackedColumn(call.Args[1]) && !c.exprPacked(call.Args[1], state) {
			c.report(call.Args[1].Pos(),
				"bulk append into a packed write column from a non-packed slice")
		}
		return
	}
	for _, arg := range call.Args[1:] {
		c.checkColumnValue(arg, state)
	}
}

// checkColumnValue checks one value entering a packed column: it must
// be a (guarded) pack expression, a variable defined by one, or a value
// read from a packed column. Builtin append calls are skipped here —
// checkColumnAppend already vets their staged values, so the enclosing
// `col = append(col, ...)` assignment is not re-checked as a raw store.
func (c *checker) checkColumnValue(v ast.Expr, state cfg.Facts) {
	if call, ok := ast.Unparen(v).(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				return
			}
		}
	}
	if ps := c.packExpr(v); ps != nil {
		ps.block = c.block
		c.checkGuard(ps, v.Pos())
		return
	}
	if id, ok := ast.Unparen(v).(*ast.Ident); ok {
		obj := identObj(c.pass, id)
		if obj != nil {
			if ps := c.packDef[obj]; ps != nil {
				c.checkGuard(ps, v.Pos())
				return
			}
			if state[obj]&(packedBit|blessedBit) != 0 {
				return
			}
		}
	}
	if c.exprPacked(v, state) {
		return
	}
	c.report(v.Pos(),
		"value stored into a packed write column is not derived as addr<<1|bit; pack the address (and range-check it) first")
}

// checkGuard verifies the pack site's address operand is range-checked
// on every path from the entry: delete every block carrying a
// comparison that mentions the address and ask whether the pack site's
// block is still reachable. Still reachable means some path packs the
// address without ever comparing it.
func (c *checker) checkGuard(ps *packSite, at token.Pos) {
	if ps.base == nil {
		// Packing a non-identifier (function call result, field read):
		// nothing to anchor the guard to; treat as unguarded so the
		// address is named and checked locally.
		c.report(at,
			"packed address is not a locally range-checked variable; bind it to a checked local before packing")
		return
	}
	guards := make(map[*cfg.Block]bool)
	for _, b := range c.graph.Blocks {
		for _, n := range b.Nodes {
			if c.nodeGuards(n, ps.base) {
				guards[b] = true
			}
		}
	}
	if len(guards) == 0 || c.graph.ReachableWithout(guards)[ps.block] {
		c.report(at,
			"packed address %q is not range-checked on every path before addr<<1|bit packing (cells are capped at 1<<30; see InitBits)", ps.base.Name())
	}
}

// nodeGuards reports whether a node contains a comparison naming obj.
func (c *checker) nodeGuards(n ast.Node, obj types.Object) bool {
	found := false
	cfg.Inspect(n, false, func(m ast.Node) bool {
		be, ok := m.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			if c.mentions(be.X, obj) || c.mentions(be.Y, obj) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentions reports whether an expression references obj (through
// conversions and arithmetic).
func (c *checker) mentions(e ast.Expr, obj types.Object) bool {
	found := false
	cfg.Inspect(e, false, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && identObj(c.pass, id) == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

func (c *checker) reportRaw(pos token.Pos, op string) {
	c.report(pos,
		"raw %s arithmetic on a packed addr<<1|bit value; unpack with >>1 / &1 before computing", op)
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.pass.Allowlisted(c.info.File, pos) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

// isIntLit matches an integer literal with the given text.
func isIntLit(e ast.Expr, text string) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.INT && lit.Value == text
}

// identObj resolves an identifier through Uses or Defs.
func identObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}
