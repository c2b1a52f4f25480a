// Package lockorder checks the lock discipline of the concurrency seam:
// mutexes must be acquired in a consistent global order, and no code may
// perform a potentially unbounded blocking operation while holding one.
// The distributed backend holds its coordinator mutex for microseconds at
// a time by design (DESIGN.md §4); a channel receive or a socket write
// under that mutex turns a slow worker into a stalled coordinator, and
// an acquisition cycle turns two slow workers into a deadlock — neither
// is observable by -race, which only proves data-race freedom on the
// interleavings that actually ran.
//
// Two invariants, both interprocedural over the vetx fact channel:
//
//   - lock order: acquiring lock B while holding lock A adds the edge
//     A -> B to a package-wide acquisition graph (callee acquisitions
//     count, via "acquires:<lock>" fact summaries). A cycle in the graph
//     — including the self-edge of a recursive acquisition — is
//     reported once, at the acquisition site that closed it.
//   - no blocking while held: a channel send or receive, a select
//     without a default clause, a known-blocking standard-library call
//     (net.Conn/Listener I/O, io.Reader/Writer, exec.Cmd.Wait,
//     WaitGroup.Wait, time.Sleep), or a call to a function with a
//     "blocks:<op>" fact summary, executed while any mutex may be held,
//     is reported at the operation.
//
// Lock identity is structural: a mutex field is "Owner.field" (receiver
// base type name, so every instance of a struct shares one lock node —
// the order invariant is per-class, not per-object), a mutex variable
// is "name@file:line" of its declaration. Held-ness is a may-analysis
// over the CFG: gen at Lock/RLock, kill at a direct Unlock/RUnlock;
// a *deferred* unlock releases only on the exit edge (cfg.DeferUnlocks),
// so the lock stays held for the rest of the body — which is exactly
// the window the blocking check must cover. Read locks share the write
// lock's identity: an RLock cycle against a writer still deadlocks.
//
// Function literals are analyzed as standalone bodies (a closure
// capturing the enclosing function's mutex still resolves to the same
// lock key); go statements and defer statements are not descended into
// at their definition site — the spawned or deferred body does not
// block the current critical section.
//
// Facts: "acquires:<lock>" and "blocks:<op>" items, comma-joined in
// declaration order, propagated transitively with interproc.PropagateSets.
//
// Suppression: //lint:lockorder-ok <reason>.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/interproc"
)

// Analyzer enforces acquisition ordering and no-blocking-while-held.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "flag mutex acquisition cycles and blocking operations performed while a mutex is held",
	AppliesTo: appliesTo,
	Run:       run,
}

// appliesTo mirrors goleak's scope: the packages that hold locks as part
// of the machine, plus analyzer fixtures.
func appliesTo(pkgPath string) bool {
	for _, seam := range []string{
		"internal/engine",
		"internal/backend",
		"internal/chaos",
	} {
		if strings.Contains(pkgPath, seam) {
			return true
		}
	}
	return strings.HasPrefix(pkgPath, "lockorder")
}

// blockingCalls maps "pkg:Sym" of known-blocking standard-library calls
// to the operation name used in diagnostics. Mutex Lock itself is
// excluded — lock-on-lock is the ordering invariant's domain, not the
// blocking check's.
var blockingCalls = map[string]string{
	"net:Conn.Read":       "net.Conn.Read",
	"net:Conn.Write":      "net.Conn.Write",
	"net:Listener.Accept": "net.Listener.Accept",
	"io:Reader.Read":      "io.Reader.Read",
	"io:Writer.Write":     "io.Writer.Write",
	"io:ReadFull":         "io.ReadFull",
	"os/exec:Cmd.Wait":    "exec.Cmd.Wait",
	"os/exec:Cmd.Run":     "exec.Cmd.Run",
	"os/exec:Cmd.Output":  "exec.Cmd.Output",
	"sync:WaitGroup.Wait": "sync.WaitGroup.Wait",
	"time:Sleep":          "time.Sleep",
}

// lockEdge is one observed may-hold-A-acquire-B event.
type lockEdge struct {
	from, to string
	file     *ast.File
	pos      token.Pos
}

func run(pass *analysis.Pass) error {
	pass.CheckDirectives()
	g := interproc.Build(pass)

	c := &checker{
		pass:        pass,
		graph:       g,
		reportedSel: make(map[token.Pos]bool),
	}

	// Pass 1: local summaries — which locks each function acquires and
	// which blocking operations it performs, literals included (calls
	// inside literals are attributed to the enclosing declaration, the
	// same convention interproc uses for its call edges).
	local := make(map[string]map[string]bool)
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		set := c.localSummary(info.Decl.Body)
		if len(set) > 0 {
			local[sym] = set
		}
	}
	c.summaries = g.PropagateSets(local, func(callee interproc.Callee) []string {
		payload, ok := pass.DepFact(callee.PkgPath, callee.Sym)
		if !ok {
			return nil
		}
		return interproc.DecodePayload(payload)
	})

	// Pass 2: held-set dataflow over each body (declared functions and
	// each function literal standalone), reporting blocking-while-held
	// and collecting acquisition edges.
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		if pass.InTestFile(info.Decl.Pos()) {
			continue
		}
		c.file = info.File
		c.checkBody(sym, info.Decl.Body)
		cfg.Inspect(info.Decl.Body, true, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.checkBody(sym+".func", lit.Body)
			}
			return true
		})
	}

	// The acquisition graph is package-global: report each cyclic
	// strongly-connected component once, at its earliest edge.
	c.reportCycles()

	// Export summaries for importers, declaration order.
	for _, sym := range g.Order {
		if pass.InTestFile(g.Funcs[sym].Decl.Pos()) {
			continue
		}
		if set := c.summaries[sym]; len(set) > 0 {
			pass.ExportFact(sym, interproc.JoinPayload(interproc.Members(set)))
		}
	}
	return nil
}

// checker carries the per-package analysis state.
type checker struct {
	pass      *analysis.Pass
	graph     *interproc.Graph
	summaries map[string]map[string]bool
	file      *ast.File
	edges     []lockEdge
	// reportedSel dedupes blocking-select diagnostics: every comm clause
	// of one select replays as a separate CFG node.
	reportedSel map[token.Pos]bool
}

// lockState is the may-held set: lock key -> possibly held here.
type lockState map[string]bool

func (s lockState) clone() lockState {
	c := make(lockState, len(s))
	for k, v := range s { //lint:maporder-ok copying into a map; iteration order invisible
		c[k] = v
	}
	return c
}

// union merges other into s, reporting whether s grew.
func (s lockState) union(other lockState) bool {
	grew := false
	for k := range other { //lint:maporder-ok merging into a map; iteration order invisible
		if !s[k] {
			s[k] = true
			grew = true
		}
	}
	return grew
}

// held renders the sorted held set for diagnostics.
func (s lockState) held() string {
	return strings.Join(interproc.Members(map[string]bool(s)), ", ")
}

// checkBody runs the held-set fixpoint over one body and replays it to
// report blocking operations and collect acquisition edges.
//
// cfg.Forward cannot be used here: it is a sticky union-join with no
// kills, and Unlock is a kill. The fixpoint below is still a monotone
// union over block IN-states — apply is (in \ kills) ∪ gens per node,
// monotone in its input — so it terminates on loops the same way.
func (c *checker) checkBody(name string, body *ast.BlockStmt) {
	g := cfg.New(name, body)
	selComm := collectSelectComms(body)

	in := make(map[*cfg.Block]lockState, len(g.Blocks))
	out := make(map[*cfg.Block]lockState, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b] = make(lockState)
		out[b] = make(lockState)
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
				c.walkNode(n, st, selComm, false)
			}
			// union keeps out monotone even though kills shrink st on a
			// given visit — once a lock has leaked into out it stays,
			// which is the sound direction for a may-analysis.
			if out[b].union(st) {
				changed = true
			}
		}
	}

	for _, b := range g.Blocks {
		st := in[b].clone()
		for _, n := range b.Nodes {
			c.walkNode(n, st, selComm, true)
		}
	}
}

// selectComm describes one comm statement of a select: where the select
// starts (the report anchor) and whether a default clause makes the
// communication non-blocking.
type selectComm struct {
	selPos     token.Pos
	hasDefault bool
}

// collectSelectComms maps every select comm statement's position to its
// select's shape, so the replay can tell a non-blocking poll from a
// blocking select and report the latter once, at the select keyword.
func collectSelectComms(body *ast.BlockStmt) map[token.Pos]selectComm {
	m := make(map[token.Pos]selectComm)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cs := range sel.Body.List {
			if cs.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		for _, cs := range sel.Body.List {
			if comm := cs.(*ast.CommClause).Comm; comm != nil {
				m[comm.Pos()] = selectComm{selPos: sel.Pos(), hasDefault: hasDefault}
			}
		}
		return true
	})
	return m
}

// walkNode applies (and, in check mode, reports against) one CFG node.
// Function literals, go statements and defer statements are not
// descended into: none of them run as part of this critical section
// (defers run at the exit edge, where a deferred Unlock releases — the
// reason the held set carries deferred locks to every node in between).
func (c *checker) walkNode(n ast.Node, st lockState, selComm map[token.Pos]selectComm, check bool) {
	if sc, ok := selComm[n.Pos()]; ok {
		// Each comm clause replays as its own CFG node; report the
		// select once, at the keyword.
		if check && !sc.hasDefault && len(st) > 0 && !c.reportedSel[sc.selPos] {
			c.reportedSel[sc.selPos] = true
			c.report(sc.selPos, "blocking select while holding %s", st.held())
		}
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if check && len(st) > 0 {
				c.report(x.Pos(), "channel send while holding %s", st.held())
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && check && len(st) > 0 {
				c.report(x.Pos(), "channel receive while holding %s", st.held())
			}
		case *ast.CallExpr:
			c.call(x, st, check)
		}
		return true
	})
}

// call applies one call's effect on the held set and, in check mode,
// reports blocking callees and records acquisition edges.
func (c *checker) call(call *ast.CallExpr, st lockState, check bool) {
	if key, op := c.lockOp(call); key != "" {
		switch op {
		case "Lock", "RLock":
			if check {
				for _, held := range interproc.Members(map[string]bool(st)) {
					c.edges = append(c.edges, lockEdge{from: held, to: key, file: c.file, pos: call.Pos()})
				}
			}
			st[key] = true
		case "Unlock", "RUnlock":
			delete(st, key)
		}
		return
	}
	if !check || len(st) == 0 {
		return
	}
	fn := interproc.CalleeFunc(c.pass, call)
	if fn == nil {
		return
	}
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sym := interproc.Symbol(fn)
	if op, ok := blockingCalls[pkgPath+":"+sym]; ok {
		c.report(call.Pos(), "blocking call %s while holding %s", op, st.held())
		return
	}
	var items []string
	if pkgPath == c.pass.Pkg.Path() {
		items = interproc.Members(c.summaries[sym])
	} else if payload, ok := c.pass.DepFact(pkgPath, sym); ok {
		items = interproc.DecodePayload(payload)
	}
	for _, it := range items {
		if op, ok := strings.CutPrefix(it, "blocks:"); ok {
			c.report(call.Pos(), "call to %s may block (%s) while holding %s", sym, op, st.held())
			break
		}
	}
	for _, it := range items {
		if key, ok := strings.CutPrefix(it, "acquires:"); ok {
			for _, held := range interproc.Members(map[string]bool(st)) {
				c.edges = append(c.edges, lockEdge{from: held, to: key, file: c.file, pos: call.Pos()})
			}
		}
	}
}

// localSummary scans one body (literals included, matching interproc's
// call attribution) for the function's own acquisitions and blocking
// operations.
func (c *checker) localSummary(body *ast.BlockStmt) map[string]bool {
	set := make(map[string]bool)
	nonblock := nonblockingOps(body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt, *ast.DeferStmt:
			// Neither blocks the caller at this site.
			return false
		case *ast.SendStmt:
			if !nonblock[x.Pos()] {
				set["blocks:channel send"] = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !nonblock[x.Pos()] {
				set["blocks:channel receive"] = true
			}
		case *ast.CallExpr:
			if key, op := c.lockOp(x); key != "" {
				if op == "Lock" || op == "RLock" {
					set["acquires:"+key] = true
				}
				return true
			}
			fn := interproc.CalleeFunc(c.pass, x)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if op, ok := blockingCalls[fn.Pkg().Path()+":"+interproc.Symbol(fn)]; ok {
				set["blocks:"+op] = true
			}
		}
		return true
	})
	return set
}

// nonblockingOps marks the positions of every send and receive inside a
// comm clause of a select that has a default clause — those are polls,
// not blocking operations.
func nonblockingOps(body *ast.BlockStmt) map[token.Pos]bool {
	m := make(map[token.Pos]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cs := range sel.Body.List {
			if cs.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, cs := range sel.Body.List {
			comm := cs.(*ast.CommClause).Comm
			if comm == nil {
				continue
			}
			ast.Inspect(comm, func(op ast.Node) bool {
				switch op := op.(type) {
				case *ast.SendStmt:
					m[op.Pos()] = true
				case *ast.UnaryExpr:
					if op.Op == token.ARROW {
						m[op.Pos()] = true
					}
				}
				return true
			})
		}
		return true
	})
	return m
}

// lockOp recognizes a sync mutex method call and returns the lock's
// identity key and the method name ("" when the call is not a mutex op
// or the lock expression cannot be tracked).
func (c *checker) lockOp(call *ast.CallExpr) (key, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	selc := c.pass.TypesInfo.Selections[sel]
	if selc == nil {
		return "", ""
	}
	fn, ok := selc.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	// The last index entry is the method; any prefix is the field path of
	// an embedded mutex.
	if path := selc.Index()[:len(selc.Index())-1]; len(path) > 0 {
		_, owner, field := analysis.FieldOwner(selc.Recv(), path)
		if owner == "" {
			return "", ""
		}
		return owner + "." + field, sel.Sel.Name
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.ObjectOf(x)
		if obj == nil {
			return "", ""
		}
		p := c.pass.Fset.Position(obj.Pos())
		return fmt.Sprintf("%s@%s:%d", obj.Name(), filepath.Base(p.Filename), p.Line), sel.Sel.Name
	case *ast.SelectorExpr:
		fs := c.pass.TypesInfo.Selections[x]
		if fs == nil {
			return "", ""
		}
		_, owner, field := analysis.FieldOwner(fs.Recv(), fs.Index())
		if owner == "" {
			return "", ""
		}
		return owner + "." + field, sel.Sel.Name
	}
	return "", ""
}

// reportCycles finds cyclic strongly-connected components of the
// acquisition graph and reports each once, at its earliest edge.
func (c *checker) reportCycles() {
	adj := make(map[string]map[string]bool)
	for _, e := range c.edges {
		if adj[e.from] == nil {
			adj[e.from] = make(map[string]bool)
		}
		adj[e.from][e.to] = true
	}
	reach := func(from, to string) bool {
		seen := map[string]bool{}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range interproc.Members(adj[n]) {
				if s == to {
					return true
				}
				if !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
		return false
	}

	sort.SliceStable(c.edges, func(i, j int) bool { return c.edges[i].pos < c.edges[j].pos })
	reported := make(map[string]bool)
	for _, e := range c.edges {
		if !reach(e.to, e.from) && e.from != e.to {
			continue // edge not on a cycle
		}
		// Members of the SCC containing this edge.
		members := map[string]bool{e.from: true, e.to: true}
		for node := range adj { //lint:maporder-ok membership test only; result sorted below
			if reach(e.from, node) && reach(node, e.from) {
				members[node] = true
			}
		}
		sorted := interproc.Members(members)
		key := interproc.JoinPayload(sorted)
		if reported[key] {
			continue
		}
		reported[key] = true
		if e.from == e.to {
			c.reportAt(e.file, e.pos, "recursive acquisition of %s", e.from)
			continue
		}
		c.reportAt(e.file, e.pos, "lock acquisition cycle: %s -> %s", strings.Join(sorted, " -> "), sorted[0])
	}
}

// report anchors a diagnostic at pos in the current file, honoring the
// allowlist.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	c.reportAt(c.file, pos, format, args...)
}

func (c *checker) reportAt(file *ast.File, pos token.Pos, format string, args ...any) {
	if c.pass.Allowlisted(file, pos) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}
