// Package lint is ceer's project-specific static analyzer suite. It
// machine-checks the invariants the repo's tests and review process
// rely on — determinism of the measurement → model → recommend
// pipeline, genericity over registered devices, and error hygiene — at
// the AST/type level rather than with greps.
//
// The engine is standard-library only: packages are parsed with
// go/parser and type-checked with go/types through a source-level
// importer (see load.go), so the suite runs offline with nothing but
// the Go toolchain installed. Analyzers implement the Analyzer
// interface below; cmd/ceer-lint is the CLI front end and
// scripts/check.sh wires the suite into the repo's verification gate.
//
// A finding can be suppressed, one line at a time, with
//
//	//lint:ignore <analyzer> <reason>
//
// placed on the offending line or the line directly above it. The
// reason is mandatory; a malformed directive is itself reported (as
// analyzer "ignore").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding. File is relative to the module root, in
// slash form, so output is stable across checkouts.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// An Analyzer inspects one type-checked analysis unit and reports
// findings through the pass.
type Analyzer struct {
	// Name identifies the analyzer in output and in lint:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Scope restricts the analyzer to packages whose import path equals
	// or ends with one of these suffixes (matched at a path-segment
	// boundary). Nil means every package. Module analyzers ignore Scope.
	Scope []string
	// Run inspects one unit. Exactly one of Run and RunModule is set.
	Run func(*Pass)
	// RunModule inspects the whole module at once. Whole-program
	// analyzers (the hot-path call-graph family) need every unit in one
	// pass: a finding in package a can be caused by a directive in
	// package b.
	RunModule func(*ModulePass)
}

// Pass carries one unit through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	Info     *types.Info

	report func(token.Pos, string)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// ModulePass carries every analysis unit through one module-wide
// analyzer. Cross-package identity caveat: each package is
// type-checked twice (once for importers, once as its own unit), so
// *types.Object values do NOT compare equal across units. Module
// analyzers key functions by path strings (see funcKey) and objects by
// token.Pos, both of which are stable because every check shares the
// same parsed files and FileSet.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkgs holds every unit sorted by import path, external test units
	// last within a path.
	Pkgs []*Package

	report func(token.Pos, string)
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// IsTestFile reports whether the node lives in a _test.go file.
func (p *ModulePass) IsTestFile(n ast.Node) bool {
	return strings.HasSuffix(p.Fset.Position(n.Pos()).Filename, "_test.go")
}

// Filename returns the name of the file a node belongs to.
func (p *Pass) Filename(n ast.Node) string {
	return p.Fset.Position(n.Pos()).Filename
}

// IsTestFile reports whether the node lives in a _test.go file.
func (p *Pass) IsTestFile(n ast.Node) bool {
	return strings.HasSuffix(p.Filename(n), "_test.go")
}

// inScope implements Analyzer.Scope matching.
func inScope(scope []string, path string) bool {
	if len(scope) == 0 {
		return true
	}
	for _, s := range scope {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// Run loads the module at cfg and applies the analyzers, returning the
// surviving diagnostics sorted by (file, line, col, analyzer, message).
// Suppressed findings are dropped; malformed lint:ignore directives are
// reported. The returned error covers load/type-check failures only —
// a non-empty diagnostic list is a normal return.
func Run(cfg Config, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, fset, err := Load(cfg)
	if err != nil {
		return nil, err
	}
	root, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, err
	}
	return runUnits(root, fset, pkgs, analyzers), nil
}

// runUnits applies the analyzers to already-loaded units.
func runUnits(root string, fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(Analyzers))
	for _, a := range Analyzers {
		known[a.Name] = true
	}

	var diags []Diagnostic
	relFile := func(abs string) string {
		if rel, err := filepath.Rel(root, abs); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return filepath.ToSlash(abs)
	}
	// Merge every unit's ignore directives before any analyzer runs:
	// module-wide analyzers report across package boundaries, so a
	// finding must be matched against the directives of the file it
	// lands in, not of the unit that happened to trigger the walk. Each
	// source file belongs to exactly one unit, so merging is a disjoint
	// union.
	ignores := &ignoreSet{byFileLine: make(map[string]map[int]map[string]bool)}
	for _, pkg := range pkgs {
		unitIgnores, bad := collectIgnores(fset, pkg, known)
		for file, lines := range unitIgnores.byFileLine {
			ignores.byFileLine[file] = lines
		}
		for _, d := range bad {
			d.File = relFile(d.File)
			diags = append(diags, d)
		}
	}
	reporterFor := func(a *Analyzer) func(token.Pos, string) {
		return func(pos token.Pos, msg string) {
			p := fset.Position(pos)
			if ignores.suppressed(a.Name, p.Filename, p.Line) {
				return
			}
			diags = append(diags, Diagnostic{
				File:     relFile(p.Filename),
				Line:     p.Line,
				Col:      p.Column,
				Analyzer: a.Name,
				Message:  msg,
			})
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil || !inScope(a.Scope, pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Pkg:      pkg,
				Info:     pkg.Info,
				report:   reporterFor(a),
			}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a.RunModule(&ModulePass{
			Analyzer: a,
			Fset:     fset,
			Pkgs:     pkgs,
			report:   reporterFor(a),
		})
	}
	sortDiagnostics(diags)
	// Nested constructs (e.g. a map range inside a map range) can make
	// two walks report the identical finding; keep one.
	uniq := diags[:0]
	for _, d := range diags {
		if len(uniq) == 0 || uniq[len(uniq)-1] != d {
			uniq = append(uniq, d)
		}
	}
	return uniq
}

// sortDiagnostics orders findings by (file, line, col, analyzer,
// message) — the stable order every output mode shares.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Analyzers is the full default suite, in reporting-name order.
var Analyzers = []*Analyzer{
	AnalyzerAllocFree,
	AnalyzerAtomics,
	AnalyzerCtxFlow,
	AnalyzerDeviceGeneric,
	AnalyzerDeterminism,
	AnalyzerErrDrop,
	AnalyzerFloatCmp,
	AnalyzerPoolPair,
}

// ByName returns the subset of the default suite matching the given
// comma-separated names, or an error naming the first unknown one.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return Analyzers, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range Analyzers {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	return out, nil
}
