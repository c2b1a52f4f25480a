// Command reprolint is the project's static-analysis tool. It enforces
// the determinism contracts (maporder, wallclock), the
// commit-barrier contract (barrier: sanctioned engine writers, read-only
// observers, one injector consult from Core.commit), the interprocedural
// fault/sentinel contracts (sentinelwrap, costbalance) built on
// per-function fact summaries, and the CFG-based dataflow contract
// (colescape). The directives check reports //lint:<name>-ok
// directives that name no analyzer and unknown or misplaced //repro:
// markers. The engine declares the facts colescape needs at the
// declaration itself: //repro:pooled on the fields holding phase-scoped
// pooled storage.
// Two invariants once policed here are structural instead: the packed
// bit-write encoding has one codec, engine.PackWrite (pinned by
// TestPackWriteRoundTrip and FuzzBarrierDifferential's word-vs-bit
// check), and each proc wire frame has one encode/decode pair in
// internal/backend/proc/proto.go (pinned by FuzzFrameCodec). Others are
// tests: internal/core's TestRegistryRerunIsIdentical runs every registry
// point twice in one process, so a draw from math/rand's global source
// fails; the engine's SteadyStateAllocs tests pin a warm phase's exact
// allocation count; TestRollbackRestoresCostExactly checks that a
// rolled-back phase leaves exactly the state it started from; and the
// proc backend's goroutine, lock and atomic contracts are owned by its
// leak checks, TestCloseDuringSpawnReturnsPromptly and go vet's
// copylocks check (DESIGN.md §5, "Concurrency contracts").
//
// It runs two ways. As a standalone driver over package patterns:
//
//	go run ./cmd/reprolint ./...
//	go run ./cmd/reprolint -json ./...
//	go run ./cmd/reprolint -sarif reprolint.sarif -baseline .reprolint-baseline.json ./...
//	go run ./cmd/reprolint -cfg-debug internal/engine/engine.go:commit
//
// and as a plain `go vet -vettool` (which the standalone mode spawns
// under the hood, so results and caching are identical):
//
//	go build -o bin/reprolint ./cmd/reprolint
//	go vet -vettool=$(command -v reprolint || echo ./bin/reprolint) ./...
//
// Run `reprolint help` for the check list and the allowlist syntax.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"strings"

	"repro/internal/analysis/cfg"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/suite"
	"repro/internal/analysis/unitchecker"
)

func main() {
	analyzers := suite.Analyzers()
	if protocolInvocation(os.Args[1:]) {
		unitchecker.Main(analyzers...) // never returns
	}

	fs := flag.NewFlagSet("reprolint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print aggregated findings as a JSON array on stdout")
	sarif := fs.String("sarif", "", "write a SARIF 2.1.0 report to `file`")
	baseline := fs.String("baseline", "", "tolerate findings recorded in baseline `file`; fail only on new ones")
	writeBaseline := fs.Bool("write-baseline", false, "rewrite the -baseline file from the current findings")
	cfgDebug := fs.String("cfg-debug", "", "print the control-flow graph the dataflow analyzers build for `file.go:Func`, then exit")
	fs.Parse(os.Args[1:])

	if *cfgDebug != "" {
		os.Exit(dumpCFG(*cfgDebug, os.Stdout, os.Stderr))
	}

	os.Exit(driver.Run(driver.Options{
		Patterns:      fs.Args(),
		JSON:          *jsonOut,
		SARIF:         *sarif,
		Baseline:      *baseline,
		WriteBaseline: *writeBaseline,
		Analyzers:     analyzers,
	}, os.Stdout, os.Stderr))
}

// dumpCFG renders the control-flow graph of one function — "file.go:F"
// for functions, "file.go:T.M" for methods — exactly as the dataflow
// analyzers see it (block kinds, edges, per-block statement labels,
// reachability marks). Purely syntactic: no type checking, so it works
// on any parseable file.
func dumpCFG(target string, out, errw io.Writer) int {
	i := strings.LastIndex(target, ":")
	if i < 0 {
		fmt.Fprintf(errw, "reprolint: -cfg-debug wants file.go:Func, got %q\n", target)
		return 2
	}
	file, fn := target[:i], target[i+1:]
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		fmt.Fprintf(errw, "reprolint: %v\n", err)
		return 2
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			if r := recvTypeName(fd.Recv.List[0].Type); r != "" {
				name = r + "." + fd.Name.Name
			}
		}
		if name != fn && fd.Name.Name != fn {
			continue
		}
		fmt.Fprint(out, cfg.New(name, fd.Body).Dump(fset))
		return 0
	}
	fmt.Fprintf(errw, "reprolint: no function %q in %s\n", fn, file)
	return 2
}

// recvTypeName extracts the receiver's type name ("T" from *T or T).
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

// protocolInvocation reports whether the arguments are a cmd/go vettool
// handshake (-V/-flags/vet.cfg, plus the help spellings unitchecker
// already renders) rather than a standalone driver run.
func protocolInvocation(args []string) bool {
	for _, a := range args {
		switch a {
		case "-V", "-V=full", "-flags", "help", "-help", "--help", "-h":
			return true
		}
		if strings.HasSuffix(a, ".cfg") {
			return true
		}
	}
	return false
}
