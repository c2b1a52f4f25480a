package analysistest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Decls indexes the declarations of a parsed package: its type names and
// every function and method name.
type Decls struct {
	types map[string]bool
	funcs map[string]bool
}

// EngineDecls parses the engine package's non-test files
// (internal/engine, two directories above the calling analyzer's
// package) with go/parser alone. Analyzers that still match engine
// declarations by name (the barrier's sanctioned writers, colescape's
// borrow points) check those names against it, so a refactor that
// renames or deletes a type or method fails a test instead of silently
// switching a check off.
func EngineDecls(t *testing.T) Decls {
	t.Helper()
	dir := filepath.Join("..", "..", "engine")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := Decls{types: map[string]bool{}, funcs: map[string]bool{}}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d.funcs[decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						d.types[ts.Name.Name] = true
					}
				}
			}
		}
	}
	if len(d.funcs) == 0 {
		t.Fatalf("no declarations parsed from %s", dir)
	}
	return d
}

// HasType reports whether the package declares the named type.
func (d Decls) HasType(name string) bool { return d.types[name] }

// HasFunc reports whether the package declares a function or method of
// that name.
func (d Decls) HasFunc(name string) bool { return d.funcs[name] }
