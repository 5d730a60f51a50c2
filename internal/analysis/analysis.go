// Package analysis is a self-contained, stdlib-only miniature of
// golang.org/x/tools/go/analysis, shaped so the OPTIK invariant analyzers
// (optikvalidate, padcheck) read exactly like upstream
// analyzers and could be ported to the real framework by swapping one
// import. The container this repo builds in carries no module
// dependencies, so the framework re-implements the three pieces it needs:
//
//   - this file: the Analyzer/Pass/Diagnostic vocabulary;
//   - load.go: a package loader built on `go list -export` plus the
//     stdlib gc importer (source-parses the packages under analysis,
//     imports their dependencies from compiled export data);
//   - checker.go: the driver that runs a fleet of analyzers over loaded
//     packages and applies `//lint:optik` suppressions;
//   - unitchecker.go: the `go vet -vettool` protocol, so cmd/optik-vet
//     plugs into the standard vet machinery (and therefore sweeps test
//     files and test packages too).
//
// The analyzers themselves machine-check the concurrency discipline the
// paper's OPTIK pattern rests on; docs/INVARIANTS.md states each invariant
// and the historical bug it would have caught.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer (minus facts and requires, which
// the fleet does not need: every OPTIK analyzer is package-local).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:optik
	// suppression comments. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph statement of the invariant.
	Doc string
	// Run inspects one package and reports violations through the Pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's parsed syntax. Files named *_test.go are
	// included when the pass comes from `go vet` (which analyzes test
	// variants); analyzers that stage deliberate races in tests skip them
	// via IsTestFile.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Sizes gives target-accurate struct layout (padcheck's offsets).
	Sizes types.Sizes

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported violation, with its position resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// IsTestFile reports whether pos lies in a *_test.go file. The
// optikvalidate analyzer skips test files: tests stage deliberate
// protocol violations (unvalidated reads in staged windows) that are the
// point of the test.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Preorder walks every node of every non-skipped file in depth-first
// preorder. It is the fleet's ast.Inspect convenience.
func (p *Pass) Preorder(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// Shared type-interrogation helpers. The analyzers match types structurally
// and by name rather than by import path identity, so their analysistest
// suites can use small stub types (a local Lock and Version, a local
// CacheLinePad) instead of importing the real module.

// Deref returns the element type of a pointer, or t itself.
func Deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// NamedOf returns the package name and type name of t (through pointers),
// or "","" when t is not a named type.
func NamedOf(t types.Type) (pkg, name string) {
	n, ok := Deref(t).(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name()
	}
	return pkg, obj.Name()
}

// IsAtomicType reports whether t (through pointers) is one of the typed
// atomics of sync/atomic (atomic.Uint64, atomic.Pointer[T], ...).
func IsAtomicType(t types.Type) bool {
	pkg, name := NamedOf(t)
	if pkg != "atomic" {
		return false
	}
	switch name {
	case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value":
		return true
	}
	return false
}

// ContainsAtomic reports whether t (recursively through named types,
// structs and arrays) contains a typed atomic — the "hot field" test of
// padcheck. Pointers are opaque: a *T field is one word, not T.
func ContainsAtomic(t types.Type) bool {
	return containsAtomic(t, 0)
}

func containsAtomic(t types.Type, depth int) bool {
	if depth > 10 {
		return false
	}
	if IsAtomicType(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsAtomic(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return containsAtomic(u.Elem(), depth+1)
	}
	return false
}

// MethodCall matches a call expression of the form recv.Name(...) and
// returns the receiver expression and the resolved method name. It returns
// ok=false for plain function calls and conversions.
func MethodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// PkgFuncCall matches a call of a package-level function pkg.Name(...) and
// returns the import path of the package and the function name.
func PkgFuncCall(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}
