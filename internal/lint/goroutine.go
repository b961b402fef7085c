package lint

import (
	"go/ast"
	"go/types"
)

// NoRawGoroutine forbids concurrency primitives inside internal/: go
// statements and channel construction (a select is a nondeterminism
// source, reported by nondet-taint). The sim kernel is single-threaded by
// design — every callback runs on one goroutine in deterministic event
// order — which is what keeps `-race` trivially clean and replay exact.
// Concurrency belongs in cmd/ drivers and the packages that declare
// themselves part of the layer above the kernel with a
// //lint:concurrency-layer <reason> comment (see ConcurrencyLayer): run
// fan-out above the kernel boundary, and nowhere else. A declared layer
// package trades this analyzer for the stricter kernel-ownership one,
// which checks that its goroutines never share restricted kernel state.
var NoRawGoroutine = &Analyzer{
	Name:      "no-raw-goroutine",
	RunModule: runNoRawGoroutine,
}

func runNoRawGoroutine(mp *ModulePass) {
	for _, pkg := range mp.Pkgs {
		if !isInternal(pkg.Dir) {
			continue
		}
		// Every internal package stays in scope, the declared layer
		// included, so an empty or removed directive reinstates the ban.
		if reason, ok, pos := ConcurrencyLayer(pkg); ok {
			if reason == "" {
				mp.Reportf(pos,
					"empty //lint:concurrency-layer directive: state why this package may run goroutines above the kernel boundary")
			}
			continue
		}
		for _, f := range mp.sourceFiles(pkg) {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.GoStmt:
					mp.Reportf(x.Pos(),
						"go statement: the simulator is single-threaded; schedule work on the event kernel (sim.Clock.After) instead")
				case *ast.CallExpr:
					if isMakeChan(pkg, x) {
						mp.Reportf(x.Pos(),
							"channel creation: use event-kernel callbacks, not channels, inside the simulator")
					}
				}
				return true
			})
		}
	}
}

func isMakeChan(pkg *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return false
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	if !ok || b.Name() != "make" {
		return false
	}
	tv, ok := pkg.Info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
