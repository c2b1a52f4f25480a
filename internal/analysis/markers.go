package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Engine facts the analyzers need are declared at the declaration
// itself, with a //repro:<name> marker in its doc or line comment,
// rather than in name tables that go stale when the engine is renamed:
//
//	//repro:pooled
//	mem []W // a struct field holding pooled, phase-scoped storage
//
// markerKinds maps each marker to the declaration kind it may mark.
var markerKinds = map[string]string{
	"pooled": "struct field",
}

// Marked returns the objects of the pass's files that carry the
// //repro:<name> marker on the kind of declaration it belongs on (the
// fields for "pooled"). Misplaced and unknown markers mark nothing; the
// directives analyzer reports them.
func (p *Pass) Marked(name string) map[types.Object]bool {
	out := make(map[types.Object]bool)
	p.markers(func(_ *ast.Comment, marker, kind string, ids []*ast.Ident) {
		if marker != name || kind != markerKinds[name] {
			return
		}
		for _, id := range ids {
			if obj := p.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	})
	return out
}

// markers calls visit for every //repro: marker comment of the pass's
// files, with the marker's name, the kind of declaration it sits on
// ("struct field", "function", or "" for none) and that declaration's
// identifiers.
func (p *Pass) markers(visit func(c *ast.Comment, name, kind string, ids []*ast.Ident)) {
	for _, f := range p.Files {
		attached := make(map[*ast.Comment]bool)
		each := func(cg *ast.CommentGroup, kind string, ids []*ast.Ident) {
			if cg == nil {
				return
			}
			for _, c := range cg.List {
				if name, ok := markerName(c.Text); ok {
					attached[c] = true
					visit(c, name, kind, ids)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				each(x.Doc, "function", []*ast.Ident{x.Name})
			case *ast.StructType:
				for _, fld := range x.Fields.List {
					each(fld.Doc, "struct field", fld.Names)
					each(fld.Comment, "struct field", fld.Names)
				}
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if name, ok := markerName(c.Text); ok && !attached[c] {
					visit(c, name, "", nil)
				}
			}
		}
	}
}

// markerName matches "//repro:<name>" at the start of a comment.
func markerName(comment string) (string, bool) {
	text, ok := strings.CutPrefix(comment, "//repro:")
	if !ok {
		return "", false
	}
	return firstWord(text), true
}

func firstWord(s string) string {
	if f := strings.Fields(s); len(f) > 0 {
		return f[0]
	}
	return ""
}

// Directives returns the suite's annotation check over the analyzers of
// suite: it reports every //lint:<name>-ok directive whose name is not
// an analyzer of the suite (such a directive would silently suppress
// nothing), and every //repro: marker whose name is unknown or that sits
// on the wrong kind of declaration (such a marker would silently mark
// nothing). Its own findings take no suppression, so its own name is not
// a valid directive key either.
func Directives(suite []*Analyzer) *Analyzer {
	known := make(map[string]bool, len(suite))
	for _, s := range suite {
		known[s.Name] = true
	}
	return &Analyzer{
		Name: "directives",
		Doc:  "flag //lint:<name>-ok directives naming no analyzer, and unknown or misplaced //repro: markers",
		Run:  func(pass *Pass) error { return checkDirectives(pass, known) },
	}
}

func checkDirectives(pass *Pass, known map[string]bool) error {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				name, ok := strings.CutSuffix(firstWord(text), "-ok")
				if ok && !known[name] {
					pass.Reportf(c.Pos(), "//lint:%s-ok names no reprolint analyzer, so it suppresses nothing; use one of %s", name, strings.Join(sortedKeys(known), ", "))
				}
			}
		}
	}
	pass.markers(func(c *ast.Comment, name, kind string, _ []*ast.Ident) {
		want, ok := markerKinds[name]
		switch {
		case !ok:
			pass.Reportf(c.Pos(), "unknown marker //repro:%s (known: %s)", name, strings.Join(sortedKeys(markerKinds), ", "))
		case kind == "":
			pass.Reportf(c.Pos(), "//repro:%s marks a %s, but this one is on no %s", name, want, want)
		case kind != want:
			pass.Reportf(c.Pos(), "//repro:%s marks a %s, not a %s", name, want, kind)
		}
	})
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //lint:maporder-ok keys are sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
