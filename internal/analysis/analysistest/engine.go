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

// Decls indexes the declarations of a parsed package: each type's
// directly declared fields and embedded type names, and every function
// and method name.
type Decls struct {
	fields map[string]map[string]bool
	embeds map[string][]string
	funcs  map[string]bool
}

// EngineDecls parses the engine package's non-test files
// (internal/engine, two directories above the calling analyzer's
// package) with go/parser alone. Analyzers that police engine state
// through name tables check the tables against it, so a refactor that
// renames or deletes a type, field or method fails a test instead of
// silently switching a check off.
func EngineDecls(t *testing.T) Decls {
	t.Helper()
	dir := filepath.Join("..", "..", "engine")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := Decls{fields: map[string]map[string]bool{}, embeds: map[string][]string{}, funcs: map[string]bool{}}
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
						d.addType(ts)
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

func (d Decls) addType(ts *ast.TypeSpec) {
	fields := map[string]bool{}
	d.fields[ts.Name.Name] = fields
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			fields[n.Name] = true
		}
		if len(f.Names) == 0 {
			d.embeds[ts.Name.Name] = append(d.embeds[ts.Name.Name], baseTypeName(f.Type))
		}
	}
}

// baseTypeName strips pointers and type arguments from a type expression
// (*store[W] → store).
func baseTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// HasType reports whether the package declares the named type.
func (d Decls) HasType(name string) bool {
	_, ok := d.fields[name]
	return ok
}

// DeclaresField reports whether type typ declares field itself.
func (d Decls) DeclaresField(typ, field string) bool { return d.fields[typ][field] }

// HasField reports whether type typ declares field or reaches it through
// its embedded types.
func (d Decls) HasField(typ, field string) bool {
	if d.DeclaresField(typ, field) {
		return true
	}
	for _, e := range d.embeds[typ] {
		if d.HasField(e, field) {
			return true
		}
	}
	return false
}

// HasFunc reports whether the package declares a function or method of
// that name.
func (d Decls) HasFunc(name string) bool { return d.funcs[name] }
