package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Facts is the dataflow lattice element used by the analyzers: a bitmask
// per object. An absent object is the bottom element (no facts). What
// the bits mean is analyzer-defined — colescape uses bit 0 for
// "tainted by pooled storage" and one bit per parameter for escape
// summaries. (The packed bit-write encoding, once tracked as such bits,
// is now structural: engine.PackWrite is its one codec, pinned by
// engine.TestPackWriteRoundTrip.)
type Facts map[types.Object]uint64

// Clone copies the fact set; analyzers use it to replay a block's
// transfer function from the fixpoint in-state Forward returned.
func (f Facts) Clone() Facts { return f.clone() }

// clone copies a fact set.
func (f Facts) clone() Facts {
	c := make(Facts, len(f))
	for k, v := range f { //lint:maporder-ok copying into a map; iteration order invisible
		c[k] = v
	}
	return c
}

// union merges other into f, reporting whether f grew.
func (f Facts) union(other Facts) bool {
	grew := false
	for k, v := range other { //lint:maporder-ok merging into a map; iteration order invisible
		if f[k]&v != v {
			f[k] |= v
			grew = true
		}
	}
	return grew
}

// Forward runs a forward may-dataflow analysis over the graph: the
// in-state of a block is the union of its predecessors' out-states, and
// transfer is applied to each node in order to produce the out-state.
// It returns the fixpoint IN-state of every block; analyzers then replay
// transfer over a block's nodes (checking their sinks as they go) to
// recover the state at each node.
//
// transfer must be monotone — it may only add facts (set bits), never
// remove them. Sticky taint loses a little precision (a variable
// reassigned to something clean stays tainted) but guarantees
// termination of the union-join iteration on graphs with loops.
func (g *Graph) Forward(transfer func(n ast.Node, state Facts)) map[*Block]Facts {
	in := make(map[*Block]Facts, len(g.Blocks))
	out := make(map[*Block]Facts, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b] = make(Facts)
		out[b] = make(Facts)
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			for _, s := range b.Succs {
				if in[s].union(out[b]) {
					changed = true
				}
			}
			st := in[b].clone()
			for _, n := range b.Nodes {
				transfer(n, st)
			}
			if out[b].union(st) {
				changed = true
			}
		}
	}
	return in
}

// Dump renders the graph for the -cfg-debug developer flag: one line per
// block with its kind, the source positions and shapes of its nodes, and
// its successor indices. The format is for humans; nothing parses it.
func (g *Graph) Dump(fset *token.FileSet) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cfg %s: %d blocks", g.Name, len(g.Blocks))
	if len(g.Defers) > 0 {
		fmt.Fprintf(&sb, ", %d defers", len(g.Defers))
	}
	sb.WriteByte('\n')
	reach := g.Reachable()
	for _, b := range g.Blocks {
		mark := " "
		if !reach[b] {
			mark = "x" // unreachable
		}
		fmt.Fprintf(&sb, "%s b%-3d %-12s", mark, b.Index, b.Kind)
		succs := make([]string, 0, len(b.Succs))
		for _, s := range b.Succs {
			succs = append(succs, fmt.Sprintf("b%d", s.Index))
		}
		sort.Strings(succs)
		if len(succs) > 0 {
			fmt.Fprintf(&sb, " -> %s", strings.Join(succs, " "))
		}
		sb.WriteByte('\n')
		for _, n := range b.Nodes {
			pos := "-"
			if fset != nil && n.Pos().IsValid() {
				p := fset.Position(n.Pos())
				pos = fmt.Sprintf("%d:%d", p.Line, p.Column)
			}
			fmt.Fprintf(&sb, "      %-8s %s\n", pos, nodeLabel(n))
		}
	}
	return sb.String()
}

// nodeLabel names a node for the dump without printing whole subtrees.
func nodeLabel(n ast.Node) string {
	switch x := n.(type) {
	case *ast.AssignStmt:
		return "assign " + x.Tok.String()
	case *ast.DeclStmt:
		return "decl"
	case *ast.ExprStmt:
		if c, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
			return "call " + callLabel(c)
		}
		if u, ok := ast.Unparen(x.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			return "recv"
		}
		return "expr"
	case *ast.ReturnStmt:
		return "return"
	case *ast.BranchStmt:
		if x.Label != nil {
			return x.Tok.String() + " " + x.Label.Name
		}
		return x.Tok.String()
	case *ast.DeferStmt:
		return "defer " + callLabel(x.Call)
	case *ast.GoStmt:
		return "go " + callLabel(x.Call)
	case *ast.SendStmt:
		return "send"
	case *ast.IncDecStmt:
		return "incdec " + x.Tok.String()
	case *ast.RangeStmt:
		return "range"
	case *ast.CallExpr:
		return "call " + callLabel(x)
	case *ast.BinaryExpr:
		return "cond " + x.Op.String()
	case ast.Expr:
		return "expr"
	default:
		return fmt.Sprintf("%T", n)
	}
}

// callLabel renders a call's function expression compactly (f, x.f, or ?
// for anything more exotic).
func callLabel(c *ast.CallExpr) string {
	switch f := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(f.X).(*ast.Ident); ok {
			return id.Name + "." + f.Sel.Name
		}
		return "?." + f.Sel.Name
	default:
		return "?"
	}
}
