// Package commitpurity guards the engine's commit-barrier invariant: the
// internal state of the engines (engine.Core, the shared-memory engine
// and its two stores, engine.Route, their request lanes and the
// processor-context cursors) may be written only from the lifecycle and
// barrier entry points and the request-recording methods.
//
// The determinism proof of the phase commit (DESIGN.md §4) rests on a
// closed-world argument: request lanes are filled in ascending processor
// order, read in lane order by the one barrier (Core.commit and the
// engines' column sources), and nothing else touches the engine state
// between the dispatch and the apply. A write from a new helper — a
// debug poke into the cell store, an eager inbox tweak, an out-of-band
// lane reset — re-opens that world silently; the runtime determinism
// suite only notices if a sampled schedule happens to expose it. This
// analyzer closes it at compile time: any assignment (or ++/--) whose
// target is a field of a protected engine type is reported unless the
// enclosing function is one of that type's sanctioned writers.
//
// The analyzer runs only on the engine package itself (unexported fields
// make cross-package writes impossible). Extending a protected type with
// a new sanctioned writer means editing the allowed-writers table here —
// a deliberate speed bump that turns "mutate the engine" into a reviewed
// contract change; a test checks that every name in the table still
// exists in the engine. One-off exceptions take
// //lint:commitpurity-ok <reason>.
package commitpurity

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer guards engine commit state against out-of-contract writes.
var Analyzer = &analysis.Analyzer{
	Name: "commitpurity",
	Doc:  "flag writes to engine internal state outside the commit entry points",
	AppliesTo: func(pkgPath string) bool {
		return strings.HasSuffix(pkgPath, "internal/engine")
	},
	Run: run,
}

// allowedWriters maps each protected engine type to the functions that
// may write its fields (a write is attributed to the type that declares
// the field, through any embedding): the lifecycle entry points (Init*,
// init, Grow, ForAll, Superstep, runPhase), the barrier's column sources
// (gather, apply, corrupt), the request recorders (the MemCtx, BitCtx and
// Sends methods, per-cell and batch alike — a batch recorder appends to
// the same cursor columns as its per-cell twin, so it is part of the same
// contract), the lanes' setup and run loop (useLanes, run), and the
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
	"cursor": set("useLanes", "run", "failf", "Op", "Read", "ReadWord", "Write",
		"ReadBlock", "ReadBatch", "WriteBlock", "WriteFill", "WriteBatch", "Submit",
		"AddWork", "Stage", "Fail", "StageBatch"),
	"lane":  set("useLanes", "run"),
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

func run(pass *analysis.Pass) error {
	pass.CheckDirectives()
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, f, fd)
		}
	}
	return nil
}

// checkFunc scans one function body (function literals inherit the
// enclosing declaration's identity: phases dispatch their chunks through
// sched.Blocks closures).
func checkFunc(pass *analysis.Pass, f *ast.File, fd *ast.FuncDecl) {
	fnName := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				checkWrite(pass, f, fnName, lhs, st.TokPos)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, f, fnName, st.X, st.TokPos)
		}
		return true
	})
}

// checkWrite reports lhs if it writes a protected field from outside its
// type's sanctioned writer set.
func checkWrite(pass *analysis.Pass, f *ast.File, fnName string, lhs ast.Expr, tok token.Pos) {
	sel := rootSelector(lhs)
	if sel == nil {
		return
	}
	selection := pass.TypesInfo.Selections[sel]
	if selection == nil || selection.Kind() != types.FieldVal {
		return
	}
	owner, field := analysis.FieldOwner(selection.Recv(), selection.Index())
	writers, protected := allowedWriters[owner]
	if !protected || writers[fnName] {
		return
	}
	if pass.Allowlisted(f, tok) {
		return
	}
	pass.Reportf(sel.Pos(),
		"engine.%s.%s written in %s, outside the commit entry points (%s); route the mutation through them or annotate //lint:commitpurity-ok <reason>",
		owner, field, fnName, writerList(writers))
}

// rootSelector unwraps indexing, dereference and parenthesisation around
// an assignment target and returns the field selector being written
// (m.mem[i] = v and b.touched[s] = t both write through the field).
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

// writerList renders an allowed-writer set deterministically for the
// diagnostic message.
func writerList(writers map[string]bool) string {
	names := make([]string, 0, len(writers))
	for n := range writers { //lint:maporder-ok names are sorted before use
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "/")
}
