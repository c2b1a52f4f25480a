// Package analysis is the project's static-analysis framework: a
// deliberately small, dependency-free mirror of the golang.org/x/tools
// go/analysis API shape. The container this repository builds in has no
// module proxy access, so the framework (and the go vet -vettool driver in
// the sibling unitchecker package) is implemented on the standard library
// alone; analyzers written against it port to the real go/analysis with a
// mechanical rename if x/tools ever becomes available.
//
// The suite exists to make the repository's determinism contract
// machine-checked at compile time instead of merely sampled at test time:
// cost reports and §5 event streams must be byte-identical for every
// Workers setting (see DESIGN.md, "Determinism invariants"), so sources of
// run-to-run nondeterminism — map iteration order, the global math/rand
// source, the host clock, stray writes to the commit engines' internal
// state — are flagged where they are written, not where they break a
// golden file.
//
// Suppression: a finding can be allowlisted with a directive comment on
// the flagged line or the line directly above it:
//
//	//lint:maporder-ok reduction is order-independent (max over values)
//
// The directive key is "<analyzer name>-ok" and the reason is mandatory: a
// bare directive does not suppress and is itself reported, so every
// exemption in the tree carries its justification.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// FactSet is one analyzer's per-function summaries for one package: it
// maps a function symbol (interproc.Symbol form — "F" for functions,
// "T.M" for methods) to an opaque string payload. Payloads are the
// analyzer's own compressed summary language ("rewinds", a sorted
// comma-joined type list, a "file:line: description" anchor, …).
type FactSet map[string]string

// PackageFacts is everything the suite learned about one package:
// analyzer name -> that analyzer's FactSet. It is what the unitchecker
// driver serializes into the package's .vetx facts file (JSON, map keys
// sorted by encoding/json, so the bytes — and cmd/go's cache keys built
// from them — are deterministic).
type PackageFacts map[string]FactSet

// Analyzer describes one static check. The zero framework runs Run once
// per package with a fully type-checked Pass.
type Analyzer struct {
	// Name is the analyzer's identifier; it prefixes diagnostics and
	// names the allowlist directive ("//lint:<Name>-ok reason").
	Name string
	// Doc is the one-line description shown by `reprolint help`.
	Doc string
	// AppliesTo, when non-nil, restricts the analyzer to packages whose
	// import path it accepts (test-variant suffixes like
	// " [repro/x.test]" are stripped before the call). A nil AppliesTo
	// runs everywhere.
	AppliesTo func(pkgPath string) bool
	// Run performs the analysis and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's parsed and type-checked state through an
// analyzer's Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// Path is the package's import path with any test-variant suffix
	// stripped.
	Path      string
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report records one finding. The driver owns ordering and output.
	Report func(Diagnostic)

	// DepFacts holds the fact files of this package's dependencies,
	// keyed by canonical import path (the driver loads them from the
	// .vetx files cmd/go lists in vet.cfg's PackageVetx). Nil when the
	// driver has no facts (fixture tests, leaf packages).
	DepFacts map[string]PackageFacts

	// facts collects the summaries this analyzer exports for the
	// current package; the driver harvests them via ExportedFacts and
	// writes them to the package's facts file for dependents.
	facts FactSet

	// directives indexes the per-file allowlist directives lazily:
	// filename -> line -> reason (which may be empty for a malformed,
	// reason-less directive).
	directives map[string]map[int]string
}

// ExportFact records an interprocedural summary for a function of the
// current package under this analyzer's name. sym is the function's
// symbol (interproc.Symbol form); payload is the analyzer's own summary
// encoding. Facts flow to dependent packages through the unitchecker
// export-data path, so analysis stays modular: a package is analyzed
// once, and its summaries are reused by every importer.
func (p *Pass) ExportFact(sym, payload string) {
	if p.facts == nil {
		p.facts = make(FactSet)
	}
	p.facts[sym] = payload
}

// ExportedFacts returns the facts this analyzer exported during Run (nil
// if none). The driver serializes them into the package's facts file.
func (p *Pass) ExportedFacts() FactSet { return p.facts }

// DepFact looks up the fact this analyzer exported for function sym of
// dependency pkgPath in an earlier (cached) analysis. The empty result
// is indistinguishable from "no fact": analyzers treat absence as the
// conservative default.
func (p *Pass) DepFact(pkgPath, sym string) (string, bool) {
	pf, ok := p.DepFacts[pkgPath]
	if !ok {
		return "", false
	}
	payload, ok := pf[p.Analyzer.Name][sym]
	return payload, ok
}

// Reportf formats and records one finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file. The suite
// checks executable model code only; tests are free to iterate maps,
// consult the clock and roll unseeded dice.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// directiveKey returns the allowlist directive key of the pass's analyzer.
func (p *Pass) directiveKey() string { return p.Analyzer.Name + "-ok" }

// Allowlisted reports whether the finding at pos is suppressed by a
// reasoned "//lint:<name>-ok reason" directive on the same line or the
// line directly above. Directives without a reason do not suppress (see
// CheckDirectives).
func (p *Pass) Allowlisted(file *ast.File, pos token.Pos) bool {
	lines := p.fileDirectives(file)
	position := p.Fset.Position(pos)
	for _, l := range []int{position.Line, position.Line - 1} {
		if reason, ok := lines[l]; ok && reason != "" {
			return true
		}
	}
	return false
}

// CheckDirectives reports every reason-less allowlist directive of this
// analyzer in the pass's files. Analyzers call it once from Run so a bare
// "//lint:<name>-ok" cannot silently disable a check. Files under a
// testdata directory are exempt: analyzer fixtures deliberately exercise
// malformed directives, and the mandatory-reason rule polices shipped
// code, not the test corpus.
func (p *Pass) CheckDirectives() {
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if inTestdata(name) {
			continue
		}
		lines := p.fileDirectives(f)
		nums := make([]int, 0, len(lines))
		for l := range lines { //lint:maporder-ok lines are sorted before reporting
			nums = append(nums, l)
		}
		sort.Ints(nums)
		for _, l := range nums {
			if lines[l] == "" {
				p.Reportf(p.lineStart(f, name, l),
					"allowlist directive //lint:%s requires a reason", p.directiveKey())
			}
		}
	}
}

// inTestdata reports whether filename has a "testdata" path segment.
func inTestdata(filename string) bool {
	for _, seg := range strings.Split(filepath.ToSlash(filename), "/") {
		if seg == "testdata" {
			return true
		}
	}
	return false
}

// lineStart returns a position on line l of file f (the file position of
// the directive comment itself when resolvable, else the file start).
func (p *Pass) lineStart(f *ast.File, filename string, l int) token.Pos {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if p.Fset.Position(c.Pos()).Line == l {
				return c.Pos()
			}
		}
	}
	return f.Pos()
}

// fileDirectives builds (and caches) the line -> reason directive index
// of one file for this analyzer.
func (p *Pass) fileDirectives(f *ast.File) map[int]string {
	name := p.Fset.Position(f.Pos()).Filename
	if p.directives == nil {
		p.directives = make(map[string]map[int]string)
	}
	if lines, ok := p.directives[name]; ok {
		return lines
	}
	lines := make(map[int]string)
	key := p.directiveKey()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			reason, ok := ParseDirective(c.Text, key)
			if !ok {
				continue
			}
			lines[p.Fset.Position(c.Pos()).Line] = reason
		}
	}
	p.directives[name] = lines
	return lines
}

// ParseDirective matches one comment against "//lint:<key> <reason>" and
// returns the (possibly empty) reason. The directive must start the
// comment: it is a machine-readable marker, not prose.
func ParseDirective(comment, key string) (reason string, ok bool) {
	text, found := strings.CutPrefix(comment, "//lint:")
	if !found {
		return "", false
	}
	text, found = strings.CutPrefix(text, key)
	if !found {
		return "", false
	}
	if text != "" && text[0] != ' ' && text[0] != '\t' {
		// A longer directive key ("maporder-okay"), not ours.
		return "", false
	}
	return strings.TrimSpace(text), true
}

// StripVariant removes cmd/go's test-variant suffix from an import path:
// "repro/x [repro/x.test]" -> "repro/x".
func StripVariant(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// FieldOwner resolves which named struct type declares the field a
// selection reaches through the given index path, walking the embedding
// path, so a field promoted through an embedded type is attributed to the
// type that declares it. It returns that type's package path and name
// and the field's name: (type name, field name) is the structural
// identity the analyzers key on, so fixtures and engines match without
// importing repro packages, and the package path tells engine state
// (a type declared in an internal/engine package) from everything else.
func FieldOwner(t types.Type, index []int) (pkg, owner, field string) {
	for _, i := range index {
		for {
			p, ok := t.(*types.Pointer)
			if !ok {
				break
			}
			t = p.Elem()
		}
		pkg, owner = "", ""
		if n, ok := t.(*types.Named); ok {
			owner = n.Obj().Name()
			if n.Obj().Pkg() != nil {
				pkg = n.Obj().Pkg().Path()
			}
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return "", "", ""
		}
		fv := st.Field(i)
		field = fv.Name()
		t = fv.Type()
	}
	return pkg, owner, field
}
