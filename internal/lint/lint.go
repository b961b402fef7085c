// Package lint is the simulator's determinism linter: a stdlib-only static
// analysis engine (go/ast + go/types, no x/tools) with domain-specific
// analyzers that enforce the reproducibility contract documented in
// DESIGN.md. A LITEWORP run must replay bit-identically from its seed —
// the paper's detection/isolation numbers are averages over controlled
// repeatable runs — so wall-clock reads, the global math/rand source,
// ranges over maps (Go randomizes their order), raw goroutines, and
// unscoped timers are all banned from the simulation packages. The linter
// turns that convention into a build-time check.
//
// Every analyzer is a module analyzer: it sees all loaded packages plus
// their static call graph in one pass. nondet-taint owns the
// nondeterminism sources (it reports each at its own line and propagates
// it through the call graph); no-raw-goroutine, scoped-timers,
// pool-lifetime and kernel-ownership check the concurrency and lifecycle
// rules. The one way to accept a finding is an inline
// //lint:<directive> <reason> waiver, and a waiver without a reason is
// itself a finding.
//
// The engine deliberately reimplements the small slice of the analysis
// framework it needs (package loading, type info, diagnostics with
// positions, waiver comments) so the module keeps its zero-dependency
// property.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned with a module-relative file path.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the conventional file:line:col: [analyzer] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one determinism rule, run once over the whole module.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (kebab-case).
	Name string
	// RunModule inspects the loaded module and reports through the pass.
	RunModule func(*ModulePass)
}

// ModulePass is one analyzer's view of the whole loaded module: all
// packages plus the call graph.
type ModulePass struct {
	Pkgs  []*Package
	Graph *Graph

	fset     *token.FileSet
	analyzer *Analyzer
	diags    *[]Diagnostic
	comments map[string]map[int]string // file -> line -> raw comment text
	// emptyAt holds the positions where an empty waiver was reported;
	// emptyReported the directives (file:line name) already reported.
	emptyAt       map[token.Pos]bool
	emptyReported map[string]bool
}

// Reportf records a finding at pos. A position where an empty waiver was
// already reported takes no second finding: the empty-waiver finding
// stands in for the one it failed to waive.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	if p.emptyAt[pos] {
		return
	}
	position := p.fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Waiver reports whether a //lint:<name> <reason> directive (e.g.
// //lint:ordered) waives the finding at pos: a trailing comment on pos's
// line or a comment on the line directly above. A directive without a
// reason waives nothing: it is reported at pos, once per directive, and
// Waiver returns false.
func (p *ModulePass) Waiver(pos token.Pos, name string) bool {
	position := p.fset.Position(pos)
	lines := p.commentLines(position.Filename)
	directive := "//lint:" + name
	for _, line := range []int{position.Line, position.Line - 1} {
		text := lines[line]
		idx := strings.Index(text, directive)
		if idx < 0 {
			continue
		}
		if strings.TrimSpace(text[idx+len(directive):]) != "" {
			return true
		}
		key := fmt.Sprintf("%s:%d %s", position.Filename, line, name)
		if !p.emptyReported[key] {
			p.Reportf(pos, "empty %s waiver waives nothing: state the reason after the directive", directive)
			p.emptyReported[key] = true
			p.emptyAt[pos] = true
		}
		return false
	}
	return false
}

func (p *ModulePass) commentLines(file string) map[int]string {
	if lines, ok := p.comments[file]; ok {
		return lines
	}
	lines := make(map[int]string)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			if p.fset.Position(f.Pos()).Filename != file {
				continue
			}
			for _, group := range f.Comments {
				for _, c := range group.List {
					lines[p.fset.Position(c.Slash).Line] = c.Text
				}
			}
		}
	}
	p.comments[file] = lines
	return lines
}

// sourceFiles yields the package's non-test files. The loader already
// excludes _test.go files; the filter keeps in-memory fixture modules
// honest too.
func (p *ModulePass) sourceFiles(pkg *Package) []*ast.File {
	out := make([]*ast.File, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		if !strings.HasSuffix(p.fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// packageMember resolves sel as a reference to a member of an imported
// package, returning the package path and member name. It returns
// ok=false for method calls, field selections, and selectors whose base is
// a shadowing local identifier rather than an import.
func packageMember(pkg *Package, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pkgName, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pkgName.Imported().Path(), sel.Sel.Name, true
}

// Analyzers returns the full determinism suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NondetTaint,
		NoRawGoroutine,
		ScopedTimers,
		PoolLifetime,
		KernelOwnership,
	}
}

// AnalyzerByName returns the named analyzer, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the analyzers to the packages and returns the findings
// sorted by file, line, column, analyzer (an empty, non-nil slice when
// there are none, so -json prints []).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags := []Diagnostic{}
	if len(pkgs) == 0 {
		return diags
	}
	graph := BuildGraph(pkgs)
	for _, a := range analyzers {
		a.RunModule(&ModulePass{
			Pkgs:          pkgs,
			Graph:         graph,
			fset:          pkgs[0].Fset,
			analyzer:      a,
			diags:         &diags,
			comments:      make(map[string]map[int]string),
			emptyAt:       make(map[token.Pos]bool),
			emptyReported: make(map[string]bool),
		})
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, column, analyzer, message
// — the canonical order every output mode (text, -json) emits.
func SortDiagnostics(diags []Diagnostic) {
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

// isInternal reports whether dir is inside internal/ — the simulation
// packages bound by the strictest rules.
func isInternal(dir string) bool {
	return dir == "internal" || strings.HasPrefix(dir, "internal/")
}

// nodeOwnedDirs are the packages whose state belongs to one node
// incarnation: their timers must route through a sim.Scope so a crash
// cancels them (DESIGN.md §6.1). Infrastructure that legitimately outlives
// node crashes (medium, trafficgen, attack tunnels, fault injector) is
// exempt.
var nodeOwnedDirs = map[string]bool{
	"internal/core":     true,
	"internal/neighbor": true,
	"internal/watch":    true,
	"internal/routing":  true,
	"internal/node":     true,
}
