package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// timerMethods are the Kernel scheduling entry points that bypass scope
// tracking. Post is the handle-free fast path and just as unscoped;
// AtSeq arms a timer at a reserved sequence number, scoped only through a
// Scope.
var timerMethods = map[string]bool{"At": true, "After": true, "Post": true, "AtSeq": true}

// ScopedTimers flags direct *sim.Kernel.At / After / Post / AtSeq calls from
// node-owned packages (core, neighbor, watch, routing, node). Timers that
// belong to one node incarnation must be scheduled through that node's
// sim.Scope — an unscoped timer survives the node's crash, fires into a
// dead stack, and corrupts the fault-injection lifecycle (DESIGN.md §6.1).
// Components should accept the sim.Clock interface and let the node wire
// in its scope.
var ScopedTimers = &Analyzer{
	Name:      "scoped-timers",
	Doc:       "forbid direct sim.Kernel scheduling from node-owned packages — node timers must go through sim.Scope",
	RunModule: runScopedTimers,
}

func runScopedTimers(mp *ModulePass) {
	for _, pkg := range mp.Pkgs {
		if !nodeOwnedDirs[pkg.Dir] {
			continue
		}
		for _, f := range mp.sourceFiles(pkg) {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if !timerMethods[sel.Sel.Name] {
					return true
				}
				tv, ok := pkg.Info.Types[sel.X]
				if !ok || !isSimKernel(tv.Type) {
					return true
				}
				mp.Reportf(call.Pos(),
					"unscoped timer: %s on *sim.Kernel survives node crashes; schedule through the node's sim.Scope (accept sim.Clock)", sel.Sel.Name)
				return true
			})
		}
	}
}

// isSimKernel matches sim.Kernel and *sim.Kernel, identifying the sim
// package by import-path suffix so synthetic test modules qualify too.
func isSimKernel(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "Kernel" {
		return false
	}
	path := obj.Pkg().Path()
	return path == "sim" || strings.HasSuffix(path, "/sim")
}
