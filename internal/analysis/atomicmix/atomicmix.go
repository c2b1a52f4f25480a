// Package atomicmix checks the memory-access discipline split that -race
// only catches when both halves of a mixed access actually execute
// concurrently under the test schedule: a location accessed through
// sync/atomic anywhere must be accessed through sync/atomic everywhere.
// One plain `c.lastBeat = 0` next to `atomic.LoadInt64(&c.lastBeat)`
// elsewhere is a data race on every architecture and an invisible one on
// x86, where the torn read the race detector would need to observe may
// never materialize.
//
// Two forms, matching the two atomic styles in the tree:
//
//   - function-API atomics: a field or package-level variable passed by
//     address to atomic.Load*/Store*/Add*/Swap*/CompareAndSwap* joins the
//     atomic set; any other plain read or write of the same location —
//     in a method, a closure, anywhere in the package — is reported.
//     Taking the address is exempt (that is how the location flows into
//     the atomic API in the first place).
//   - typed atomics (atomic.Bool, atomic.Int64, ...): the type system
//     already forces Load/Store at every use, so the only way to break
//     the discipline is to copy the value wholesale — `x := c.closed` or
//     `c.closed = other.closed` — which forks the counter. Whole-value
//     assignment of a typed atomic is reported.
//
// Location identity follows lockorder's structural convention: fields
// are "Owner.field" (per-class), package-level variables "var:name",
// locals "name@file:line". Field and package-variable keys are exported
// as "atomic <pos>" facts so importers of a package that atomically
// manages a field cannot plainly poke it from outside.
//
// Test files are exempt: tests read counters after joining every
// goroutine, where plain access is legal by happens-before.
//
// Suppression: //lint:atomicmix-ok <reason>.
package atomicmix

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// Analyzer enforces all-atomic-or-never access per location.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc:  "flag plain reads/writes of locations that are accessed via sync/atomic elsewhere",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pass.CheckDirectives()
	c := &checker{
		pass:      pass,
		atomicKey: make(map[string]token.Pos),
		exempt:    make(map[token.Pos]bool),
	}

	// Pass 1 over every file: collect the atomic set and the positions
	// exempt from the plain-access check (operands feeding the atomic
	// API, and every address-of operand — &x.f does not read x.f).
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				c.collectAtomicCall(x)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					c.exempt[ast.Unparen(x.X).Pos()] = true
				}
			}
			return true
		})
	}

	// Pass 2: report plain accesses to atomic-set locations, and
	// whole-value copies of typed atomics.
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		c.file = f
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				// One report per assignment pair: a typed-atomic RHS is
				// a copy, a typed-atomic LHS an overwrite — both fork
				// the value, and when both hold one diagnostic is
				// enough.
				for i, rhs := range x.Rhs {
					if c.checkTypedAtomicCopy(rhs) {
						continue
					}
					if len(x.Lhs) == len(x.Rhs) {
						c.checkTypedAtomicCopy(x.Lhs[i])
					}
				}
				if len(x.Lhs) != len(x.Rhs) {
					for _, lhs := range x.Lhs {
						c.checkTypedAtomicCopy(lhs)
					}
				}
			case *ast.ValueSpec:
				for _, val := range x.Values {
					c.checkTypedAtomicCopy(val)
				}
			case *ast.ReturnStmt:
				for _, res := range x.Results {
					c.checkTypedAtomicCopy(res)
				}
			case *ast.SelectorExpr:
				c.checkPlainAccess(x)
			case *ast.Ident:
				c.checkPlainIdent(x)
			}
			return true
		})
	}

	// Export field and package-variable keys, sorted for determinism.
	for _, key := range sortedKeys(c.atomicKey) {
		if strings.Contains(key, "@") {
			continue // local variable: key is meaningless outside this package
		}
		pos := pass.Fset.Position(c.atomicKey[key])
		pass.ExportFact(key, fmt.Sprintf("atomic %s:%d", filepath.Base(pos.Filename), pos.Line))
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	file *ast.File
	// atomicKey maps a location key to the first atomic access position.
	atomicKey map[string]token.Pos
	// exempt marks expression positions that must not be reported as
	// plain accesses (address-of operands).
	exempt map[token.Pos]bool
}

// atomicFuncs are the sync/atomic function-API prefixes that take the
// location's address as their first argument.
var atomicFuncs = []string{"Load", "Store", "Add", "Swap", "CompareAndSwap"}

// collectAtomicCall records the location behind atomic.XxxYyy(&loc, ...).
func (c *checker) collectAtomicCall(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := c.pass.TypesInfo.Uses[pkgID].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return
	}
	matched := false
	for _, prefix := range atomicFuncs {
		if strings.HasPrefix(sel.Sel.Name, prefix) {
			matched = true
			break
		}
	}
	if !matched {
		return
	}
	addr, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || addr.Op != token.AND {
		return
	}
	loc := ast.Unparen(addr.X)
	key := c.locKey(loc)
	if key == "" {
		return
	}
	if _, seen := c.atomicKey[key]; !seen {
		c.atomicKey[key] = loc.Pos()
	}
}

// locKey derives the location identity of an addressable expression.
func (c *checker) locKey(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		fs := c.pass.TypesInfo.Selections[x]
		if fs == nil || fs.Kind() != types.FieldVal {
			return ""
		}
		_, owner, field := analysis.FieldOwner(fs.Recv(), fs.Index())
		if owner == "" {
			return ""
		}
		return owner + "." + field
	case *ast.Ident:
		obj := c.pass.TypesInfo.ObjectOf(x)
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return ""
		}
		if v.Parent() == v.Pkg().Scope() {
			return "var:" + v.Name()
		}
		p := c.pass.Fset.Position(v.Pos())
		return fmt.Sprintf("%s@%s:%d", v.Name(), filepath.Base(p.Filename), p.Line)
	}
	return ""
}

// checkPlainAccess reports a field selection whose key is in the atomic
// set (locally, or via a dep fact on the owner type's package) and which
// is not an address-of operand.
func (c *checker) checkPlainAccess(sel *ast.SelectorExpr) {
	if c.exempt[sel.Pos()] {
		return
	}
	fs := c.pass.TypesInfo.Selections[sel]
	if fs == nil || fs.Kind() != types.FieldVal {
		return
	}
	_, owner, field := analysis.FieldOwner(fs.Recv(), fs.Index())
	if owner == "" {
		return
	}
	key := owner + "." + field
	if first, ok := c.atomicKey[key]; ok {
		p := c.pass.Fset.Position(first)
		c.report(sel.Pos(), "non-atomic access to %s, which is accessed atomically at %s:%d", key, filepath.Base(p.Filename), p.Line)
		return
	}
	// Cross-package: the owner type may belong to a dependency that
	// manages the field atomically.
	if pkg := ownerPkg(fs.Recv()); pkg != "" && pkg != c.pass.Pkg.Path() {
		if payload, ok := c.pass.DepFact(pkg, key); ok {
			c.report(sel.Pos(), "non-atomic access to %s, which %s accesses atomically (%s)", key, pkg, payload)
		}
	}
}

// checkPlainIdent reports a bare variable use whose key is in the atomic
// set (package-level or local variables passed to sync/atomic).
func (c *checker) checkPlainIdent(id *ast.Ident) {
	if c.exempt[id.Pos()] {
		return
	}
	v, ok := c.pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return
	}
	var key string
	if v.Parent() == v.Pkg().Scope() {
		key = "var:" + v.Name()
	} else {
		p := c.pass.Fset.Position(v.Pos())
		key = fmt.Sprintf("%s@%s:%d", v.Name(), filepath.Base(p.Filename), p.Line)
	}
	first, ok := c.atomicKey[key]
	if !ok || id.Pos() == v.Pos() {
		return // not atomic, or this is the declaration itself
	}
	p := c.pass.Fset.Position(first)
	c.report(id.Pos(), "non-atomic access to %s, which is accessed atomically at %s:%d", trimVarKey(key), filepath.Base(p.Filename), p.Line)
}

// typedAtomics are the value types of sync/atomic whose copy semantics
// break the counter.
var typedAtomics = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

// checkTypedAtomicCopy reports whole-value assignment of a typed atomic
// (either side of an assignment forks the value). It reports whether it
// fired, so assignment pairs produce one diagnostic.
func (c *checker) checkTypedAtomicCopy(e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e.(type) {
	case *ast.SelectorExpr, *ast.Ident:
	default:
		return false
	}
	named, ok := c.pass.TypesInfo.TypeOf(e).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || !typedAtomics[obj.Name()] {
		return false
	}
	if id, ok := e.(*ast.Ident); ok && id.Name == "_" {
		return false
	}
	c.report(e.Pos(), "whole-value copy of atomic.%s forks the counter; use Load/Store", obj.Name())
	return true
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.pass.Allowlisted(c.file, pos) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

// ownerPkg names the package of the receiver's base named type.
func ownerPkg(t types.Type) string {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj().Pkg() != nil {
		return n.Obj().Pkg().Path()
	}
	return ""
}

// trimVarKey strips the "var:" marker for diagnostics.
func trimVarKey(key string) string { return strings.TrimPrefix(key, "var:") }

// sortedKeys returns the map's keys in sorted order.
func sortedKeys(m map[string]token.Pos) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //lint:maporder-ok keys are sorted before use
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
