// Package analysistest runs an analyzer over fixture packages under
// testdata/src and checks its diagnostics against // want expectations —
// the same fixture convention as golang.org/x/tools' analysistest,
// reimplemented on the standard library (this build environment has no
// module proxy, so x/tools cannot be vendored).
//
// A fixture package lives at testdata/src/<import/path>/ relative to the
// calling test's package directory; the import path is what the
// analyzer's AppliesTo filter sees, so path-scoped analyzers are
// exercised with realistic paths ("repro/internal/engine"). Expectations
// are comments on the line the diagnostic is expected:
//
//	for k := range m { // want `range over map`
//
// Each backquoted or double-quoted string after "want" is a regular
// expression that must match one diagnostic on that line, in order; lines
// without a want comment must produce no diagnostics. Fixtures are
// type-checked against the real standard library (compiled from GOROOT
// source), so math/rand and time resolve to the genuine packages.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads the fixture package at testdata/src/<pkgPath>, applies the
// analyzer and checks diagnostics against the fixture's want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	diags, fset, files := runAnalyzer(t, a, pkgPath)

	type key struct {
		file string
		line int
	}
	got := make(map[key][]string)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		got[k] = append(got[k], d.Message)
	}

	var keys []key
	want := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pats, err := parseWant(c.Text)
				if err != nil {
					t.Fatalf("%s:%d: %v", name, fset.Position(c.Pos()).Line, err)
				}
				if len(pats) == 0 {
					continue
				}
				k := key{name, fset.Position(c.Pos()).Line}
				want[k] = append(want[k], pats...)
			}
		}
	}
	for k := range want { //lint:maporder-ok keys are sorted before use
		keys = append(keys, k)
	}
	for k := range got { //lint:maporder-ok keys are sorted before use
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})

	for _, k := range keys {
		g, w := got[k], want[k]
		if len(g) != len(w) {
			t.Errorf("%s:%d: got %d diagnostics %q, want %d", k.file, k.line, len(g), g, len(w))
			continue
		}
		for i := range g {
			if !w[i].MatchString(g[i]) {
				t.Errorf("%s:%d: diagnostic %q does not match %q", k.file, k.line, g[i], w[i])
			}
		}
	}
}

// RunClean asserts the analyzer reports nothing on the fixture package.
func RunClean(t *testing.T, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	diags, fset, _ := runAnalyzer(t, a, pkgPath)
	for _, d := range diags {
		t.Errorf("%s: unexpected diagnostic: %s", fset.Position(d.Pos), d.Message)
	}
}

// runAnalyzer parses and type-checks the fixture and returns the
// analyzer's diagnostics in positional order.
func runAnalyzer(t *testing.T, a *analysis.Analyzer, pkgPath string) ([]analysis.Diagnostic, *token.FileSet, []*ast.File) {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgPath))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture package %s: %v", pkgPath, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("fixture package %s has no Go files", pkgPath)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error:    func(err error) { t.Errorf("fixture typecheck: %v", err) },
	}
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", pkgPath, err)
	}

	if a.AppliesTo != nil && !a.AppliesTo(analysis.StripVariant(pkgPath)) {
		t.Fatalf("analyzer %s does not apply to fixture path %s", a.Name, pkgPath)
	}
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Path:      pkgPath,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, fset, files
}

var wantRE = regexp.MustCompile("(`[^`]*`|\"[^\"]*\")")

// parseWant extracts the expectation regexps from one comment: a comment
// whose text (after //) starts with "want" carries one or more quoted
// patterns. A //lint: directive or //repro: marker fills its whole
// comment, so an expectation about one follows it inside that comment:
//
//	//repro:poold // want `unknown marker`
func parseWant(comment string) ([]*regexp.Regexp, error) {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	rest, ok := strings.CutPrefix(text, "want ")
	if !ok && (strings.HasPrefix(text, "lint:") || strings.HasPrefix(text, "repro:")) {
		_, rest, ok = strings.Cut(text, " // want ")
	}
	if !ok {
		return nil, nil
	}
	raw := wantRE.FindAllString(rest, -1)
	if len(raw) == 0 {
		return nil, fmt.Errorf("want comment carries no quoted pattern: %s", comment)
	}
	pats := make([]*regexp.Regexp, len(raw))
	for i, r := range raw {
		re, err := regexp.Compile(r[1 : len(r)-1])
		if err != nil {
			return nil, fmt.Errorf("bad want pattern %s: %w", r, err)
		}
		pats[i] = re
	}
	return pats, nil
}
