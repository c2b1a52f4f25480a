// Package cfg builds intraprocedural control-flow graphs over Go
// function bodies for the reprolint dataflow analyzer (colescape). Like
// the rest of the analysis framework it is a deliberately small,
// dependency-free mirror of the x/tools shape (golang.org/x/tools/go/cfg):
// this build environment has no module proxy, so the builder is
// implemented on the standard library alone.
//
// The graph is syntactic — it needs no type information — and models the
// control constructs the contract analyzers care about:
//
//   - if/else, for (init/cond/post), range, plain blocks;
//   - switch and type switch, including fallthrough;
//   - select, with each communication clause in its own block;
//   - labeled break/continue, goto, and labels as join points;
//   - short-circuit && and || in branch conditions: each operand
//     evaluates in its own block, so a guard like `addr < 0 || addr >= n`
//     contributes blocks that every fallthrough path must cross;
//   - return and calls to panic as terminal edges to the exit block.
//
// go statements are straight-line nodes: launching never blocks, and the
// spawned body is not part of the spawner's graph. defer is recorded
// (Defers) but deferred execution is not given edges: the analyzers
// treat deferred calls as running at every exit, which is sound for the
// may-analyses built here. Function literal bodies are not inlined into
// the enclosing graph; analyzers walk them separately.
package cfg

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: statements (and branch-condition
// expressions) that execute in sequence, with control transferring to
// one of Succs at the end. A block with no successors falls off the end
// of the function or transferred control to Exit.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable across
	// builds of the same function; block 0 is the entry).
	Index int
	// Kind is a human-readable tag for dumps ("entry", "if.then",
	// "for.body", "cond.&&", "label.retry", …).
	Kind string
	// Nodes are the statements and condition expressions of the block in
	// execution order. Control statements contribute their components
	// (an if contributes its init and cond; the branches are separate
	// blocks), so every node here is straight-line.
	Nodes []ast.Node
	// Succs are the possible control-flow successors.
	Succs []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Name labels the graph in dumps (function symbol).
	Name string
	// Blocks lists every block; Blocks[0] is Entry, Blocks[1] is Exit.
	Blocks []*Block
	// Entry is the function entry; Exit is the single synthetic exit
	// every return/panic/fallthrough-off-the-end edge targets.
	Entry, Exit *Block
	// Defers are the deferred calls of the body in source order; they
	// run at every exit (no explicit edges are built).
	Defers []*ast.CallExpr
}

// New builds the control-flow graph of one function body. name labels
// dumps; body may be any *ast.BlockStmt (the builder is also used for
// function literals by analyzers that need it).
func New(name string, body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{Name: name}}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.labels = make(map[string]*Block)
	b.stmts(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
	}
	return b.g
}

// Reachable returns the set of blocks reachable from the entry.
// Analyzers use it to skip dead code (statements after an unconditional
// return never execute, so a finding there would be noise).
func (g *Graph) Reachable() map[*Block]bool {
	seen := map[*Block]bool{g.Entry: true}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// builder carries the construction state. cur is the block statements
// are currently appended to; nil means control cannot reach this point
// (after a return/goto/break), in which case the next statement starts a
// fresh, predecessor-less block so dead code is represented but never
// marked reachable.
type builder struct {
	g      *Graph
	cur    *Block
	labels map[string]*Block
	// frames is the enclosing breakable/continuable construct stack.
	frames []frame
	// pendingLabel is the label of the labeled statement being entered,
	// consumed by the next loop/switch/select handler.
	pendingLabel string
}

// frame is one enclosing breakable construct: break targets brk;
// continue (loops only) targets cont.
type frame struct {
	label     string
	brk, cont *Block
	isLoop    bool
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// add appends a straight-line node to the current block, starting a
// dead block first if control cannot reach here.
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("dead")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// start makes (and returns) a new block and moves construction into it,
// wiring an edge from the current block when control can fall through.
func (b *builder) start(kind string) *Block {
	blk := b.newBlock(kind)
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for a loop/switch/select handler.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmts(st.List)
	case *ast.IfStmt:
		b.ifStmt(st)
	case *ast.ForStmt:
		b.forStmt(st)
	case *ast.RangeStmt:
		b.rangeStmt(st)
	case *ast.SwitchStmt:
		b.switchStmt(st)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(st)
	case *ast.SelectStmt:
		b.selectStmt(st)
	case *ast.LabeledStmt:
		b.labeledStmt(st)
	case *ast.BranchStmt:
		b.branchStmt(st)
	case *ast.ReturnStmt:
		b.add(st)
		if b.cur != nil {
			b.edge(b.cur, b.g.Exit)
		}
		b.cur = nil
	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, st.Call)
		b.add(st)
	case *ast.ExprStmt:
		b.add(st)
		if isPanic(st.X) {
			if b.cur != nil {
				b.edge(b.cur, b.g.Exit)
			}
			b.cur = nil
		}
	case *ast.EmptyStmt:
		// nothing
	default:
		// Assignments, declarations, sends, inc/dec: straight-line.
		b.add(st)
	}
}

// isPanic reports whether the expression statement is a call to the
// panic builtin (control does not continue past it).
func isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// cond appends the evaluation of a branch condition, giving each
// short-circuit operand its own block: in `a && b`, b evaluates in a
// block entered from a's block, with a short-circuit edge around it —
// so a dataflow fact established by evaluating a (a bounds check, say)
// holds on every path past the condition, while facts from b hold only
// on the non-short-circuit path.
func (b *builder) cond(e ast.Expr) {
	if x, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && (x.Op == token.LAND || x.Op == token.LOR) {
		b.cond(x.X)
		lhs := b.cur
		rhs := b.newBlock("cond." + x.Op.String())
		b.edge(lhs, rhs)
		b.cur = rhs
		b.cond(x.Y)
		merge := b.newBlock("cond.merge")
		b.edge(b.cur, merge)
		b.edge(lhs, merge) // short-circuit around the right operand
		b.cur = merge
		return
	}
	b.add(e)
}

func (b *builder) ifStmt(st *ast.IfStmt) {
	b.takeLabel()
	if st.Init != nil {
		b.add(st.Init)
	}
	b.cond(st.Cond)
	condBlk := b.cur
	after := b.newBlock("if.after")

	then := b.newBlock("if.then")
	b.edge(condBlk, then)
	b.cur = then
	b.stmts(st.Body.List)
	if b.cur != nil {
		b.edge(b.cur, after)
	}

	if st.Else != nil {
		els := b.newBlock("if.else")
		b.edge(condBlk, els)
		b.cur = els
		b.stmt(st.Else)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	} else {
		b.edge(condBlk, after)
	}
	b.cur = after
}

func (b *builder) forStmt(st *ast.ForStmt) {
	label := b.takeLabel()
	if st.Init != nil {
		b.add(st.Init)
	}
	head := b.start("for.head")
	if st.Cond != nil {
		b.cond(st.Cond)
	}
	headEnd := b.cur
	after := b.newBlock("for.after")
	if st.Cond != nil {
		b.edge(headEnd, after)
	}
	var post *Block
	cont := head
	if st.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, st.Post)
		b.edge(post, head)
		cont = post
	}
	body := b.newBlock("for.body")
	b.edge(headEnd, body)
	b.cur = body
	b.frames = append(b.frames, frame{label: label, brk: after, cont: cont, isLoop: true})
	b.stmts(st.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	if b.cur != nil {
		b.edge(b.cur, cont)
	}
	b.cur = after
}

func (b *builder) rangeStmt(st *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.start("range.head")
	// The RangeStmt node itself carries the ranged expression and the
	// per-iteration key/value definitions; transfer functions handle it.
	head.Nodes = append(head.Nodes, st)
	after := b.newBlock("range.after")
	b.edge(head, after)
	body := b.newBlock("range.body")
	b.edge(head, body)
	b.cur = body
	b.frames = append(b.frames, frame{label: label, brk: after, cont: head, isLoop: true})
	b.stmts(st.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.cur = after
}

func (b *builder) switchStmt(st *ast.SwitchStmt) {
	label := b.takeLabel()
	if st.Init != nil {
		b.add(st.Init)
	}
	if st.Tag != nil {
		b.add(st.Tag)
	}
	b.caseClauses(label, st.Body.List, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
		nodes := make([]ast.Node, 0, len(cc.List))
		for _, e := range cc.List {
			nodes = append(nodes, e)
		}
		return nodes, cc.Body, cc.List == nil
	})
}

func (b *builder) typeSwitchStmt(st *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if st.Init != nil {
		b.add(st.Init)
	}
	b.add(st.Assign)
	b.caseClauses(label, st.Body.List, func(cc *ast.CaseClause) ([]ast.Node, []ast.Stmt, bool) {
		return nil, cc.Body, cc.List == nil
	})
}

// caseClauses builds the clause blocks of a switch/type switch: every
// clause is entered from the dispatch block, a clause ending in
// fallthrough also flows into the next clause's body, and break (or
// falling off a clause) targets the after block. Without a default
// clause the dispatch can skip every case.
func (b *builder) caseClauses(label string, list []ast.Stmt, split func(*ast.CaseClause) ([]ast.Node, []ast.Stmt, bool)) {
	dispatch := b.cur
	if dispatch == nil {
		dispatch = b.newBlock("dead")
		b.cur = dispatch
	}
	after := b.newBlock("switch.after")
	hasDefault := false
	entries := make([]*Block, len(list))
	for i, cs := range list {
		cc := cs.(*ast.CaseClause)
		nodes, _, isDefault := split(cc)
		kind := "case"
		if isDefault {
			kind = "default"
			hasDefault = true
		}
		entries[i] = b.newBlock(kind)
		entries[i].Nodes = append(entries[i].Nodes, nodes...)
		b.edge(dispatch, entries[i])
	}
	if !hasDefault {
		b.edge(dispatch, after)
	}
	b.frames = append(b.frames, frame{label: label, brk: after})
	for i, cs := range list {
		cc := cs.(*ast.CaseClause)
		_, body, _ := split(cc)
		b.cur = entries[i]
		fallsThrough := false
		for j, s := range body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && j == len(body)-1 {
				fallsThrough = true
				break
			}
			b.stmt(s)
		}
		if fallsThrough && i+1 < len(entries) {
			if b.cur != nil {
				b.edge(b.cur, entries[i+1])
			}
		} else if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *builder) selectStmt(st *ast.SelectStmt) {
	label := b.takeLabel()
	dispatch := b.cur
	if dispatch == nil {
		dispatch = b.newBlock("dead")
		b.cur = dispatch
	}
	after := b.newBlock("select.after")
	b.frames = append(b.frames, frame{label: label, brk: after})
	for _, cs := range st.Body.List {
		cc := cs.(*ast.CommClause)
		clause := b.newBlock("select.case")
		b.edge(dispatch, clause)
		if cc.Comm != nil {
			clause.Nodes = append(clause.Nodes, cc.Comm)
		}
		b.cur = clause
		b.stmts(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *builder) labeledStmt(st *ast.LabeledStmt) {
	name := st.Label.Name
	target := b.labels[name]
	if target == nil {
		target = b.newBlock("label." + name)
		b.labels[name] = target
	}
	if b.cur != nil {
		b.edge(b.cur, target)
	}
	b.cur = target
	switch st.Stmt.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.pendingLabel = name
	}
	b.stmt(st.Stmt)
	b.pendingLabel = ""
}

func (b *builder) branchStmt(st *ast.BranchStmt) {
	b.add(st)
	switch st.Tok {
	case token.GOTO:
		name := st.Label.Name
		target := b.labels[name]
		if target == nil {
			target = b.newBlock("label." + name)
			b.labels[name] = target
		}
		b.edge(b.cur, target)
		b.cur = nil
	case token.BREAK:
		if t := b.frameTarget(st, false); t != nil {
			b.edge(b.cur, t)
		}
		b.cur = nil
	case token.CONTINUE:
		if t := b.frameTarget(st, true); t != nil {
			b.edge(b.cur, t)
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Non-final fallthrough is a compile error; the clause builder
		// handles the legal final position. Nothing to wire here.
	}
}

// frameTarget resolves break/continue against the enclosing construct
// stack, innermost first; continue skips non-loop frames.
func (b *builder) frameTarget(st *ast.BranchStmt, isContinue bool) *Block {
	label := ""
	if st.Label != nil {
		label = st.Label.Name
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if isContinue && !f.isLoop {
			continue
		}
		if label != "" && f.label != label {
			continue
		}
		if isContinue {
			return f.cont
		}
		return f.brk
	}
	return nil
}
