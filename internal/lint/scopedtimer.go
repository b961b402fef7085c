package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// timerMethods are the Kernel scheduling entry points that bypass scope
// tracking. Post is the handle-free fast path and just as unscoped;
// AfterLane arms a fixed-delay lane timer, scoped only through a Scope.
var timerMethods = map[string]bool{"At": true, "After": true, "Post": true, "AfterLane": true}

// ScopedTimers flags direct *sim.Kernel.At / After / Post / AfterLane calls from
// node-owned packages (core, neighbor, watch, routing, node). Timers that
// belong to one node incarnation must be scheduled through that node's
// sim.Scope — an unscoped timer survives the node's crash, fires into a
// dead stack, and corrupts the fault-injection lifecycle (DESIGN.md §6.1).
// Components should accept the sim.Clock interface and let the node wire
// in its scope.
var ScopedTimers = &Analyzer{
	Name:      "scoped-timers",
	Doc:       "forbid direct sim.Kernel scheduling from node-owned packages — node timers must go through sim.Scope",
	AppliesTo: func(dir string) bool { return nodeOwnedDirs[dir] },
	Run: func(pass *Pass) {
		for _, f := range pass.Files() {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				// sim.NewWheel(clock, gran): a wheel schedules its own
				// sweep timers on the clock it is given, so handing it a
				// raw kernel smuggles unscoped timers past the method
				// checks below. The wheel must ride a scope too.
				if isSimFunc(pass, sel, "NewWheel") {
					if len(call.Args) > 0 {
						if tv, ok := pass.Pkg.Info.Types[call.Args[0]]; ok && isSimKernel(tv.Type) {
							pass.Reportf(call.Pos(),
								"unscoped wheel: sim.NewWheel on *sim.Kernel sweeps past node crashes; build it on the node's sim.Scope")
						}
					}
					return true
				}
				if !timerMethods[sel.Sel.Name] {
					return true
				}
				tv, ok := pass.Pkg.Info.Types[sel.X]
				if !ok || !isSimKernel(tv.Type) {
					return true
				}
				pass.Reportf(call.Pos(),
					"unscoped timer: %s on *sim.Kernel survives node crashes; schedule through the node's sim.Scope (accept sim.Clock)", sel.Sel.Name)
				return true
			})
		}
	},
}

// isSimFunc reports whether sel resolves to the named package-level
// function of the sim package.
func isSimFunc(pass *Pass, sel *ast.SelectorExpr, name string) bool {
	if sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "sim" || strings.HasSuffix(path, "/sim")
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
