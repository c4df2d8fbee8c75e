// Package analysis is the repo's static-analysis suite: seven analyzers
// that machine-check invariants which previously existed only as prose
// in DESIGN.md (exhaustive wire.Kind handling, wall-clock and map-order
// determinism, mutex guard conventions, zero-valued deviation knobs,
// allocation discipline on //urb:hotpath functions, no writes through
// the shared bytes of a wire.Message's Body, no writes through a shared
// failure detector view — see DESIGN.md §12 for the analyzer ↔ section
// map).
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) so the analyzers could move
// onto the upstream framework wholesale, but it is built on the standard
// library alone: the module has no dependencies and its tooling must
// work offline. cmd/urbvet drives the suite both standalone and through
// the `go vet -vettool` protocol.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// An Analyzer describes one analysis pass and its entry point.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags.
	Name string
	// Doc is the analyzer's documentation, first line a summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, positioned in a Pass's FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the runner
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)

	dirIndex map[*ast.File]*fileDirectives
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// IsTestFile reports whether f is a _test.go file. The analyzers check
// production invariants; tests may use wall clocks, partial switches
// and unguarded access freely.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// PkgBase returns the last element of the package's import path, the
// unit several analyzers key their scope on ("wire", "urb", ...).
func (p *Pass) PkgBase() string { return path.Base(p.Pkg.Path()) }

// All returns the full suite in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		KindExhaustive,
		Determinism,
		GuardedBy,
		ZeroConfig,
		HotPath,
		BodyWrite,
		ViewWrite,
	}
}

// RunAll applies every analyzer in suite to the loaded package and
// returns the diagnostics sorted by position.
func RunAll(lp *LoadedPackage, suite []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range suite {
		pass := &Pass{
			Analyzer:  a,
			Fset:      lp.Fset,
			Files:     lp.Files,
			Pkg:       lp.Pkg,
			TypesInfo: lp.Info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			d.Analyzer = name
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sortDiagnostics(lp.Fset, diags)
	return diags, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	// Insertion sort keeps the runner dependency-free; diagnostic counts
	// are tiny.
	for i := 1; i < len(diags); i++ {
		for j := i; j > 0 && diagLess(fset, diags[j], diags[j-1]); j-- {
			diags[j], diags[j-1] = diags[j-1], diags[j]
		}
	}
}

func diagLess(fset *token.FileSet, a, b Diagnostic) bool {
	pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Line != pb.Line {
		return pa.Line < pb.Line
	}
	if pa.Column != pb.Column {
		return pa.Column < pb.Column
	}
	return a.Analyzer < b.Analyzer
}

// namedType unwraps t to its *types.Named form, looking through aliases
// and pointers but not other composites.
func namedType(t types.Type) (*types.Named, bool) {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	n, ok := t.(*types.Named)
	return n, ok
}

// pkgNameOf resolves an expression to the package it names, if it is a
// package qualifier (the `time` in `time.Now`).
func pkgNameOf(info *types.Info, e ast.Expr) (*types.PkgName, bool) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil, false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return pn, ok
}
