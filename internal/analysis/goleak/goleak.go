// Package goleak checks the goroutine-lifecycle contract of the
// concurrency seam (the engine, the backends and the chaos harness):
// every goroutine launched there must have a statically
// provable exit path, because the sweep and chaos harnesses run tens of
// thousands of scenarios per process and a goroutine leaked per run
// turns into an unbounded pile the race detector never flags.
//
// The proof obligation is on the spawned body's control-flow graph:
// every reachable block must be able to reach the function exit
// (Graph.ReachesExit). That one criterion covers the three exit-path
// classes the transport actually uses:
//
//   - a terminating body: no cycles at all, as in WaitGroup-joined
//     workers or the proc coordinator's handshake closure — the join
//     edge guarantees the spawner outlives them, and the body's CFG
//     falls through to the exit;
//   - an exit-guarded loop: a `select` clause receiving from a
//     done/dead/stop channel or a `ctx.Done()`/`closed.Load()` check
//     that returns, and connection-close unblocks — a read loop whose
//     `err != nil` branch returns exits when Close tears the socket
//     down. All of these are edges out of the cycle into a block that
//     reaches the exit;
//   - a callee summary: `go f()` where f's own body carries the proof.
//     Same-package targets are checked directly; cross-package targets
//     resolve through "noexit"/"spawns" facts on the vetx channel, and
//     absence of a fact is the conservative default (stdlib callees like
//     exec.Cmd.Wait terminate).
//
// A body that fails the criterion — `for { v := <-ch; use(v) }` with no
// escape, `select {}`, a spin loop with no break — is reported at the go
// statement. Spawn sites whose target cannot be resolved statically
// (function values, interface methods) are skipped: the analyzer
// under-approximates, consistent with the suite's precision-first
// stance (DESIGN.md §5).
//
// Facts: "noexit <pos>" marks a function whose body, run as a
// goroutine, can never return; "spawns <pos>" marks a function that
// (transitively) launches such a goroutine, so cross-package callers
// inherit the finding at their call site.
//
// Suppression: //lint:goleak-ok <reason>.
package goleak

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
	"repro/internal/analysis/interproc"
)

// Analyzer proves an exit path for every spawned goroutine.
var Analyzer = &analysis.Analyzer{
	Name:      "goleak",
	Doc:       "flag goroutines launched in engine/backend/chaos code without a statically provable exit path",
	AppliesTo: appliesTo,
	Run:       run,
}

// appliesTo scopes the check to the concurrency seam: the packages that
// spawn goroutines as part of the machine, plus analyzer fixtures. The
// rest of the tree is sequential by design (the determinism contract
// forbids stray concurrency), so running there would only cost cache
// keys.
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
	return strings.HasPrefix(pkgPath, "goleak")
}

func run(pass *analysis.Pass) error {
	pass.CheckDirectives()
	g := interproc.Build(pass)

	// Classify every declared body once: noexit[sym] anchors the first
	// block control can enter but never leave.
	noexit := make(map[string]string)
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		if pass.InTestFile(info.Decl.Pos()) {
			continue
		}
		if why := bodyNoExit(pass, cfg.New(sym, info.Decl.Body)); why != "" {
			noexit[sym] = why
		}
	}

	// Report every resolvable spawn site; remember which functions spawn
	// a leak (for the transitive "spawns" fact).
	spawnsLocal := make(map[string]bool)
	spawnWhy := make(map[string]string)
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		if pass.InTestFile(info.Decl.Pos()) {
			continue
		}
		c := &checker{pass: pass, info: info, noexit: noexit}
		c.checkSpawns(info.Decl.Body)
		if c.leaks != "" {
			spawnsLocal[sym] = true
			spawnWhy[sym] = c.leaks
		}
	}

	// Close "spawns" transitively: calling a function that leaks leaks.
	spawns := g.Propagate(spawnsLocal, func(c interproc.Callee) bool {
		payload, ok := pass.DepFact(c.PkgPath, c.Sym)
		return ok && strings.HasPrefix(payload, "spawns")
	})

	// Report cross-package call sites that inherit a leak (same-package
	// leaks were already reported at their own go statement).
	for _, sym := range g.Order {
		info := g.Funcs[sym]
		if pass.InTestFile(info.Decl.Pos()) {
			continue
		}
		for _, call := range info.Calls {
			if call.PkgPath == g.PkgPath || call.Iface {
				continue
			}
			payload, ok := pass.DepFact(call.PkgPath, call.Sym)
			if !ok || !strings.HasPrefix(payload, "spawns") {
				continue
			}
			if pass.Allowlisted(info.File, call.Pos.Pos()) {
				continue
			}
			pass.Reportf(call.Pos.Pos(),
				"call to %s.%s leaks a goroutine (%s)", call.PkgPath, call.Sym, payload)
		}
	}

	// Export facts for importers, in deterministic declaration order.
	for _, sym := range g.Order {
		if pass.InTestFile(g.Funcs[sym].Decl.Pos()) {
			continue
		}
		switch {
		case noexit[sym] != "":
			pass.ExportFact(sym, "noexit "+noexit[sym])
		case spawns[sym]:
			why := spawnWhy[sym]
			if why == "" {
				why = "via callee"
			}
			pass.ExportFact(sym, "spawns "+why)
		}
	}
	return nil
}

// checker walks one declared body's spawn sites.
type checker struct {
	pass   *analysis.Pass
	info   *interproc.FuncInfo
	noexit map[string]string
	// leaks anchors the first unsuppressed leak found (payload for the
	// enclosing function's "spawns" fact).
	leaks string
}

// checkSpawns visits every go statement of the body, including those
// inside function literals (a spawned literal can itself spawn).
func (c *checker) checkSpawns(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		c.checkSpawn(gs)
		return true
	})
}

// checkSpawn proves (or reports) one spawn site.
func (c *checker) checkSpawn(gs *ast.GoStmt) {
	pos := gs.Pos()
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		if why := bodyNoExit(c.pass, cfg.New("go", fun.Body)); why != "" {
			c.report(pos, "goroutine has no statically provable exit path: %s", why)
		}
	default:
		fn := interproc.CalleeFunc(c.pass, gs.Call)
		if fn == nil || interproc.IsInterfaceMethod(fn) {
			// Function value or dynamic dispatch: unresolvable,
			// under-approximate.
			return
		}
		sym := interproc.Symbol(fn)
		if fn.Pkg() != nil && fn.Pkg().Path() == c.pass.Pkg.Path() {
			if why := c.noexit[sym]; why != "" {
				c.report(pos, "goroutine %s has no statically provable exit path: %s", sym, why)
			}
			return
		}
		pkgPath := ""
		if fn.Pkg() != nil {
			pkgPath = fn.Pkg().Path()
		}
		if payload, ok := c.pass.DepFact(pkgPath, sym); ok {
			// Either the body never exits or it leaks transitively;
			// spawning it hands the leak to this package.
			c.report(pos, "goroutine %s.%s leaks (%s)", pkgPath, sym, payload)
		}
	}
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.pass.Allowlisted(c.info.File, pos) {
		return
	}
	c.pass.Reportf(pos, format, args...)
	if c.leaks == "" {
		c.leaks = c.pass.Fset.Position(pos).String()
	}
}

// bodyNoExit proves the exit path of one body: every reachable block
// must reach the exit. It returns "" when the proof holds, or a
// description anchoring the first block control can enter but never
// leave.
func bodyNoExit(pass *analysis.Pass, g *cfg.Graph) string {
	reach := g.Reachable()
	exitReach := g.ReachesExit()
	for _, b := range g.Blocks {
		if !reach[b] || b == g.Exit || exitReach[b] {
			continue
		}
		at := "function body"
		for _, n := range b.Nodes {
			if p := pass.Fset.Position(n.Pos()); p.IsValid() {
				at = fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
				break
			}
		}
		return fmt.Sprintf("no path from the %s block at %s to a return", b.Kind, at)
	}
	return ""
}
