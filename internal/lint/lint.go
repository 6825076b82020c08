// Package lint is cws-vet's analysis suite: two static analyzers for
// invariants of this repository that the type system cannot see and that no
// test enumerates — a test exercises the schedules and call sites it drives,
// an analyzer covers every one the source contains:
//
//   - frozenwrite: types published through atomic.Pointer snapshots (and
//     types annotated //cws:frozen) must not have their fields written
//     outside construction — published snapshots are immutable, and a write
//     after publication is a race only a cooperating schedule reveals.
//   - typederr: errors built in the sketch/store packages keep the typed
//     error contract (package-prefixed messages, %w when wrapping), and no
//     package flattens an error chain with fmt.Errorf("...%v", err), at any
//     site, covered by a test or not.
//
// The package is deliberately self-contained over the standard library's
// go/ast and go/types (no golang.org/x/tools dependency): Analyzer, Pass,
// and the testdata-fixture harness in linttest mirror the go/analysis
// shapes closely enough that migrating to x/tools later is mechanical.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check, in the image of golang.org/x/tools'
// analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, documentation, and the
	// check_docs.sh gate. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description printed by cws-vet -help.
	Doc string
	// Run reports the analyzer's diagnostics for one package.
	Run func(*Pass)
}

// Analyzers is the full cws-vet suite, in reporting order.
var Analyzers = []*Analyzer{
	FrozenWrite,
	TypedErr,
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer *Analyzer
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer.Name)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Report receives each diagnostic. The driver and the test harness
	// install their own sinks.
	Report func(Diagnostic)

	annotations *annotations // lazily built //cws: directive index
}

// NewPass assembles a Pass for one analyzer over one type-checked package.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, Report: report}
}

// Reportf reports a diagnostic at pos. Diagnostics positioned in _test.go
// files are suppressed package-wide: the invariants are production-code
// invariants, and tests deliberately violate them (mutating snapshots) to
// prove the dynamic detection works.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if strings.HasSuffix(position.Filename, "_test.go") {
		return
	}
	p.Report(Diagnostic{Analyzer: p.Analyzer, Pos: position, Message: fmt.Sprintf(format, args...)})
}

// callee resolves the *types.Func a call expression statically invokes, or
// nil for calls through function values, builtins, and type conversions.
func (p *Pass) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// RunAnalyzers runs every analyzer in the suite over one package, appending
// to the shared report sink.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) {
	for _, a := range Analyzers {
		a.Run(NewPass(a, fset, files, pkg, info, report))
	}
}

// pkgPathIs reports whether a package's import path names one of this
// module's packages identified by suffix — e.g. ("internal/sketch",
// "coordsample/internal/sketch") and the fixture package ("sketch") both
// match "internal/sketch"'s base name. Matching by suffix keeps the
// analyzers testable from testdata fixtures, whose import paths carry no
// module prefix.
func pkgPathIs(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	if path == suffix || strings.HasSuffix(path, "/"+suffix) {
		return true
	}
	base := suffix[strings.LastIndex(suffix, "/")+1:]
	return path == base || strings.HasSuffix(path, "/"+base)
}
