package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildFunc parses one function declaration and builds its graph.
func buildFunc(t *testing.T, body string) (*Graph, *token.FileSet) {
	t.Helper()
	src := "package p\n" + body
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return New(fd.Name.Name, fd.Body), fset
		}
	}
	t.Fatal("no function in source")
	return nil, nil
}

// markBlock finds the block whose nodes include a call mark("name").
func markBlock(t *testing.T, g *Graph, name string) *Block {
	t.Helper()
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "mark" {
				continue
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Value == `"`+name+`"` {
				return b
			}
		}
	}
	t.Fatalf("no block contains mark(%q)\n%s", name, g.Dump(nil))
	return nil
}

// pathExists reports whether to is reachable from from along Succs.
func pathExists(from, to *Block) bool {
	seen := map[*Block]bool{from: true}
	stack := []*Block{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == to {
			return true
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

func TestLabeledBreakAndContinue(t *testing.T) {
	g, _ := buildFunc(t, `
func f(xs [][]int) {
outer:
	for i := range xs {
		for j := range xs[i] {
			if xs[i][j] < 0 {
				break outer
			}
			if xs[i][j] == 0 {
				continue outer
			}
			mark("inner")
		}
		mark("outerTail")
	}
	mark("done")
}`)
	inner := markBlock(t, g, "inner")
	tail := markBlock(t, g, "outerTail")
	done := markBlock(t, g, "done")
	reach := g.Reachable()
	for _, b := range []*Block{inner, tail, done} {
		if !reach[b] {
			t.Errorf("block %d (%s) should be reachable", b.Index, b.Kind)
		}
	}
	// break outer jumps straight to the code after the outer loop; the
	// break block must reach "done" without passing "outerTail".
	var breakBlk *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.BREAK {
				breakBlk = b
			}
		}
	}
	if breakBlk == nil {
		t.Fatal("no break block found")
	}
	if len(breakBlk.Succs) != 1 || !pathExists(breakBlk.Succs[0], done) {
		t.Errorf("break outer must target the outer loop's after block")
	}
	if pathExists(breakBlk.Succs[0], tail) {
		t.Errorf("break outer must not flow back into the outer loop body")
	}
	// continue outer skips the rest of the outer body: its successor
	// must reach "inner" again (around the loop) but tail must not be
	// its immediate successor.
	var contBlk *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.CONTINUE {
				contBlk = b
			}
		}
	}
	if contBlk == nil {
		t.Fatal("no continue block found")
	}
	if len(contBlk.Succs) != 1 {
		t.Fatalf("continue block has %d successors, want 1", len(contBlk.Succs))
	}
	if contBlk.Succs[0] == tail {
		t.Errorf("continue outer must not fall into the outer loop tail")
	}
}

func TestGoto(t *testing.T) {
	g, _ := buildFunc(t, `
func f(n int) {
	if n > 0 {
		goto skip
	}
	mark("before")
skip:
	mark("after")
}`)
	before := markBlock(t, g, "before")
	after := markBlock(t, g, "after")
	reach := g.Reachable()
	if !reach[before] || !reach[after] {
		t.Fatalf("both arms should be reachable")
	}
	// The goto block's successor must be the label block, and the path
	// through the goto must not pass "before".
	var gotoBlk *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.GOTO {
				gotoBlk = b
			}
		}
	}
	if gotoBlk == nil {
		t.Fatal("no goto block")
	}
	if len(gotoBlk.Succs) != 1 || !pathExists(gotoBlk.Succs[0], after) {
		t.Errorf("goto must target the label block reaching mark(after)")
	}
	if pathExists(gotoBlk.Succs[0], before) {
		t.Errorf("goto skip must not reach mark(before)")
	}
}

func TestGotoBackward(t *testing.T) {
	g, _ := buildFunc(t, `
func f(n int) {
retry:
	mark("body")
	if n > 0 {
		n--
		goto retry
	}
	mark("done")
}`)
	body := markBlock(t, g, "body")
	done := markBlock(t, g, "done")
	if !pathExists(body, body) {
		// Backward goto forms a loop: body must reach itself.
		t.Errorf("backward goto must create a cycle through the label block")
	}
	if !pathExists(body, done) {
		t.Errorf("fallthrough exit must stay reachable")
	}
}

func TestDeferInLoop(t *testing.T) {
	g, _ := buildFunc(t, `
func f(xs []func()) {
	for _, x := range xs {
		defer x()
	}
	defer mark("d")
	mark("done")
}`)
	if len(g.Defers) != 2 {
		t.Fatalf("got %d defers, want 2", len(g.Defers))
	}
	// The deferred call in the loop is recorded and the loop body block
	// carries the DeferStmt node (its arguments evaluate per iteration).
	foundInLoop := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok && strings.HasPrefix(b.Kind, "range.") {
				foundInLoop = true
			}
		}
	}
	if !foundInLoop {
		t.Errorf("defer statement inside the loop must sit in a range body block")
	}
	if !g.Reachable()[markBlock(t, g, "done")] {
		t.Errorf("code after defers must stay reachable")
	}
}

func TestShortCircuitConditions(t *testing.T) {
	g, _ := buildFunc(t, `
func f(addr, n int) {
	if addr < 0 || addr >= n {
		mark("fail")
		return
	}
	mark("ok")
}`)
	ok := markBlock(t, g, "ok")
	fail := markBlock(t, g, "fail")
	reach := g.Reachable()
	if !reach[ok] || !reach[fail] {
		t.Fatal("both branches must be reachable")
	}
	// Each comparison must sit in its own block, and the second operand
	// must be skippable: the graph has a path past the condition that
	// avoids the block evaluating addr >= n (the || short-circuits).
	var first, second *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			be, okCast := n.(*ast.BinaryExpr)
			if !okCast {
				continue
			}
			switch be.Op {
			case token.LSS:
				first = b
			case token.GEQ:
				second = b
			}
		}
	}
	if first == nil || second == nil {
		t.Fatalf("both comparisons must appear as condition nodes\n%s", g.Dump(nil))
	}
	if first == second {
		t.Fatalf("short-circuit operands must split into separate blocks")
	}
	// Removing the *first* comparison's block must cut off the body:
	// every path crosses it.
	if reachableWithout(g, map[*Block]bool{first: true})[ok] {
		t.Errorf("every path to the body must evaluate the first operand")
	}
	// Removing only the second must NOT cut off the body (short-circuit
	// edge around it exists).
	if !reachableWithout(g, map[*Block]bool{second: true})[ok] {
		t.Errorf("the second operand must be skippable via the short-circuit edge")
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g, _ := buildFunc(t, `
func f(n int) {
	switch n {
	case 0:
		mark("zero")
		fallthrough
	case 1:
		mark("one")
	default:
		mark("def")
	}
	mark("after")
}`)
	zero := markBlock(t, g, "zero")
	one := markBlock(t, g, "one")
	def := markBlock(t, g, "def")
	after := markBlock(t, g, "after")
	if !pathExists(zero, one) {
		t.Errorf("fallthrough must wire case 0 into case 1's body")
	}
	if pathExists(zero, def) {
		t.Errorf("fallthrough must not reach the default clause")
	}
	for _, b := range []*Block{zero, one, def} {
		if !pathExists(b, after) {
			t.Errorf("clause %q must flow to the after block", b.Kind)
		}
	}
}

func TestSwitchWithoutDefaultSkips(t *testing.T) {
	g, _ := buildFunc(t, `
func f(n int) {
	switch n {
	case 0:
		mark("zero")
	}
	mark("after")
}`)
	zero := markBlock(t, g, "zero")
	after := markBlock(t, g, "after")
	// With no default the dispatch can skip every clause: removing the
	// only case block must leave "after" reachable.
	if !reachableWithout(g, map[*Block]bool{zero: true})[after] {
		t.Errorf("switch without default must have a skip edge to after")
	}
}

func TestReturnMakesTailUnreachable(t *testing.T) {
	g, _ := buildFunc(t, `
func f() int {
	return 1
	mark("dead")
}`)
	dead := markBlock(t, g, "dead")
	if g.Reachable()[dead] {
		t.Errorf("code after return must be unreachable")
	}
}

func TestPanicIsTerminal(t *testing.T) {
	g, _ := buildFunc(t, `
func f(n int) {
	if n < 0 {
		panic("neg")
		mark("dead")
	}
	mark("ok")
}`)
	if g.Reachable()[markBlock(t, g, "dead")] {
		t.Errorf("code after panic must be unreachable")
	}
	if !g.Reachable()[markBlock(t, g, "ok")] {
		t.Errorf("the non-panicking branch must stay reachable")
	}
}

func TestTypeSwitchAndSelect(t *testing.T) {
	g, _ := buildFunc(t, `
func f(v any, ch chan int) {
	switch v.(type) {
	case int:
		mark("int")
	case string:
		mark("str")
	}
	select {
	case x := <-ch:
		_ = x
		mark("recv")
	default:
		mark("none")
	}
	mark("end")
}`)
	end := markBlock(t, g, "end")
	for _, name := range []string{"int", "str", "recv", "none"} {
		b := markBlock(t, g, name)
		if !g.Reachable()[b] {
			t.Errorf("clause %s must be reachable", name)
		}
		if !pathExists(b, end) {
			t.Errorf("clause %s must flow to the end", name)
		}
	}
}

func TestForwardTaintThroughLoop(t *testing.T) {
	// A fact set at loop entry must propagate around the back edge and
	// be visible in the loop head on the second iteration.
	g, _ := buildFunc(t, `
func f(n int) {
	x := 0
	for i := 0; i < n; i++ {
		x = x + i
		mark("body")
	}
	mark("done")
}`)
	// Use a synthetic transfer: mark the assignment's position by
	// setting a bit for every node seen; the body's in-state at
	// fixpoint must include the fact produced inside the body itself
	// (flowed around the loop).
	type probe struct{ bodySeen bool }
	var p probe
	in := g.Forward(func(n ast.Node, state Facts) {
		if es, ok := n.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
					state[nil] |= 1 // nil object: function-global marker bit
					p.bodySeen = true
				}
			}
		}
	})
	if !p.bodySeen {
		t.Fatal("transfer never saw the body")
	}
	body := markBlock(t, g, "body")
	if in[body][nil]&1 == 0 {
		t.Errorf("fact set in the loop body must flow around the back edge into the body's in-state")
	}
	done := markBlock(t, g, "done")
	if in[done][nil]&1 == 0 {
		t.Errorf("fact set in the loop body must flow to the loop exit")
	}
}

func TestGoStatementSpawnSites(t *testing.T) {
	g, _ := buildFunc(t, `
func f(w *W, ch chan int) {
	go w.loop()
	go func() {
		for {
			<-ch
		}
	}()
	mark("after")
}`)
	// Spawning never blocks the spawner: the code after both go
	// statements falls through to the exit.
	after := markBlock(t, g, "after")
	if !g.Reachable()[after] || !pathExists(after, g.Exit) {
		t.Errorf("spawner must fall through past go statements to the exit")
	}
	// The spawned literal's body is NOT inlined: its infinite receive
	// loop must not appear as blocks of the spawner's graph.
	for _, b := range g.Blocks {
		if strings.HasPrefix(b.Kind, "for.") {
			t.Errorf("spawned function literal body leaked into the spawner's graph (block %d %s)", b.Index, b.Kind)
		}
	}
}

func TestSelectClauseKinds(t *testing.T) {
	g, _ := buildFunc(t, `
func f(in chan int, out chan int) {
	select {
	case v := <-in:
		_ = v
		mark("recv")
	case out <- 1:
		mark("send")
	default:
		mark("none")
	}
}`)
	// Every clause, whatever its communication, opens its own
	// select.case block: the receive and the send lead theirs, and the
	// default clause, which has none, starts with its body.
	var lead []string
	for _, b := range g.Blocks {
		if b.Kind == "select.case" {
			lead = append(lead, nodeLabel(b.Nodes[0]))
		}
	}
	if got := strings.Join(lead, " | "); got != "assign := | send | call mark" {
		t.Errorf("select clause blocks lead with %q\n%s", got, g.Dump(nil))
	}
}

func TestBlockingSelectHasNoSkipEdge(t *testing.T) {
	g, _ := buildFunc(t, `
func f(in chan int) {
	select {
	case <-in:
		mark("recv")
	}
	mark("after")
}`)
	// Without a default clause the dispatch cannot skip the
	// communication: deleting the only clause block must cut off
	// everything after the select.
	recv := markBlock(t, g, "recv")
	after := markBlock(t, g, "after")
	if reachableWithout(g, map[*Block]bool{recv: true})[after] {
		t.Errorf("select without default must not have an edge around its clauses")
	}
}

func TestReachesExit(t *testing.T) {
	// A loop whose only content is a channel receive has no path to the
	// function exit: its blocks are reachable but never reach the exit.
	g, _ := buildFunc(t, `
func f(ch chan int) {
	for {
		v := <-ch
		_ = v
		mark("loop")
	}
}`)
	loop := markBlock(t, g, "loop")
	if !g.Reachable()[loop] {
		t.Fatal("loop body must be reachable")
	}
	if pathExists(loop, g.Exit) {
		t.Errorf("an escapeless receive loop must not reach the exit")
	}

	// The same loop with a guarded return has an exit path from every
	// reachable block.
	g2, _ := buildFunc(t, `
func f(ch chan int, done chan struct{}) {
	for {
		select {
		case <-done:
			return
		case v := <-ch:
			_ = v
			mark("work")
		}
	}
}`)
	for b := range g2.Reachable() {
		if !pathExists(b, g2.Exit) {
			t.Errorf("block %d (%s) is reachable but cannot reach the exit\n%s", b.Index, b.Kind, g2.Dump(nil))
		}
	}
}

func TestEmptySelectBlocksForever(t *testing.T) {
	g, _ := buildFunc(t, `
func f() {
	select {}
}`)
	// select{} never proceeds: no reachable path to the exit exists.
	if pathExists(g.Entry, g.Exit) {
		t.Errorf("select{} must cut the entry off from the exit")
	}
}

func TestDumpIsStable(t *testing.T) {
	g, fset := buildFunc(t, `
func f(a, b bool) {
	if a && b {
		mark("x")
	}
}`)
	d1, d2 := g.Dump(fset), g.Dump(fset)
	if d1 != d2 {
		t.Errorf("Dump must be deterministic")
	}
	if !strings.Contains(d1, "cfg f:") || !strings.Contains(d1, "cond.&&") {
		t.Errorf("dump missing expected headers:\n%s", d1)
	}
}

func TestDumpShowsConcurrencyConstructs(t *testing.T) {
	g, fset := buildFunc(t, `
func f(mu sync.Locker, ch chan int) {
	mu.Lock()
	defer mu.Unlock()
	go worker(ch)
	select {
	case <-ch:
	default:
	}
	ch <- 1
	<-ch
}`)
	d := g.Dump(fset)
	for _, want := range []string{
		"1 defers", "go worker", "defer mu.Unlock",
		"select.case", "send", "recv",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

// reachableWithout returns the blocks reachable from the entry when the
// given blocks are removed from the graph: a block that stays reachable
// has a path around every removed one.
func reachableWithout(g *Graph, removed map[*Block]bool) map[*Block]bool {
	seen := map[*Block]bool{}
	stack := []*Block{g.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] || removed[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return seen
}
