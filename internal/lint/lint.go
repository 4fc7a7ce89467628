// Package lint is the repository's static-analysis suite: seven
// analyzers that machine-check the invariants the rest of the codebase
// documents in prose — determinism of schedules and codecs at any
// GOMAXPROCS, nil-safety of obs.Probe, context consultation in engine
// and worker loops, trace sinks that keep no lent StepRec,
// init-only algorithm registration, allocation discipline on annotated
// hot paths, and no export of an internal package that only tests use.
// cmd/noblint runs every analyzer over ./... and CI fails the build on
// any diagnostic.  Six analyzers check one package at a time; deadexport
// reads the whole program, the nested bench/ module included.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis
// shape (Analyzer, Pass, positional diagnostics) but is built on the
// standard library alone: packages are enumerated with `go list -export
// -deps -json`, parsed with go/parser, and type-checked with go/types
// against the build cache's export data.  The container this repository
// grows in has no module proxy access, so the x/tools dependency the
// suite would normally take is reimplemented in ~300 lines here; the
// analyzer sources would port to go/analysis mechanically.
//
// # Annotations
//
// Analyzers key off machine-readable comment directives placed in the
// doc comment of a function or type declaration:
//
//	//nob:deterministic  — byte-determinism root (maporder walks its
//	                       same-package callees)
//	//nob:nilsafe        — every exported pointer method must begin
//	                       with a nil-receiver guard (nilprobe)
//	//nob:ctxloop        — every loop must consult a context.Context
//	                       on some path (ctxflow)
//	//nob:hotpath        — no fmt calls, interface boxing, escaping
//	                       closure captures or unhinted append growth
//	                       (hotalloc)
//	//nob:testhook why   — an export that only tests use, kept because
//	                       tests of several packages share it; on a
//	                       package clause it covers the package
//	                       (deadexport; the reason is required)
//
// # Suppression
//
// A diagnostic is suppressed by a directive on the flagged line, or on
// a comment line immediately above it:
//
//	//nolint:maporder // iteration feeds an order-insensitive sum
//
// The analyzer list after the colon is comma-separated; "all"
// suppresses every analyzer.  A reason after a second "//" is expected
// by convention (README, "Static analysis") and review should reject
// bare suppressions.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.  Run inspects a type-checked
// package through the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name is the identifier used in diagnostics and //nolint directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run performs the analysis on one package.
	Run func(*Pass)
	// RunProgram, set instead of Run, analyzes every loaded package in
	// one call, for invariants no single package can decide.
	RunProgram func(*Program)
}

// Diagnostic is one reported finding, carrying its resolved position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Program carries every loaded package through one whole-program
// analyzer.
type Program struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos, a position in pkg.
func (p *Program) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// FuncAnnotated reports whether fn's doc comment carries //nob:<name>.
func FuncAnnotated(fn *ast.FuncDecl, name string) bool {
	return commentGroupHasDirective(fn.Doc, "nob:"+name)
}

// Analyzers returns the full suite, sorted by name.
func Analyzers() []*Analyzer {
	all := []*Analyzer{
		MapOrderAnalyzer,
		NilProbeAnalyzer,
		CtxFlowAnalyzer,
		SinkOwnAnalyzer,
		RegInitAnalyzer,
		HotAllocAnalyzer,
		DeadExportAnalyzer,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// AnalyzerByName resolves one analyzer; the error enumerates the names.
func AnalyzerByName(name string) (*Analyzer, error) {
	var names []string
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, nil
		}
		names = append(names, a.Name)
	}
	return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", name, strings.Join(names, ", "))
}

// RunAnalyzers applies every analyzer to every package and returns the
// surviving (non-suppressed) diagnostics sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.RunProgram != nil {
			a.RunProgram(&Program{Analyzer: a, Pkgs: pkgs, diags: &diags})
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			a.Run(pass)
		}
		diags = suppress(diags, pkg)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
