package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ConcurrencyLayer reports whether the package declares itself part of the
// concurrency layer above the simulation kernel via a
//
//	//lint:concurrency-layer <reason>
//
// file comment. The directive replaces the old hardcoded concurrencyScope
// map: the exemption now lives next to the code it exempts, carries its
// justification inline, and the kernel-ownership analyzer still checks the
// exempted package's goroutines against the ownership rules — declaring
// the layer buys the right to use go/select/channels, not the right to
// share kernel state.
func ConcurrencyLayer(pkg *Package) (reason string, ok bool, pos token.Pos) {
	const directive = "//lint:concurrency-layer"
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				// The directive must open the comment: prose that merely
				// mentions it (like this doc) must not declare a layer.
				rest, found := strings.CutPrefix(c.Text, directive)
				if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				return strings.TrimSpace(rest), true, c.Slash
			}
		}
	}
	return "", false, token.NoPos
}

// KernelOwnership statically enforces the DESIGN §6.3 concurrency
// boundary: a simulation run — its sim.Kernel, scopes, timers and
// Scenario — is owned by exactly one goroutine for its whole lifetime.
// Ownership may only move down a call chain through explicit parameters;
// it must never be shared through closure captures, package-level
// variables, channels, or arguments smuggled into a go statement while the
// spawner keeps its own reference.
//
// The analyzer computes the set of functions reachable from any go-spawn
// site in the module (call graph, call + bind edges) and checks:
//
//   - spawn sites: the spawned call's receiver or arguments must not carry
//     restricted state (`go kernel.Step()` shares the kernel)
//   - captures: a closure spawned as a goroutine must not capture a
//     variable of restricted type — its free variables live in the
//     spawner's frame, so the capture is shared by construction. Closures
//     created *inside* the spawned goroutine (the whole single-threaded
//     simulator) stay on one goroutine and are exempt.
//   - globals: goroutine-reachable code must not touch a package-level
//     variable of restricted type
//   - channels: no channel anywhere in the module may carry restricted
//     state (channels exist to move values between goroutines)
//
// Restricted types are the containment closure over sim.Kernel, sim.Scope,
// sim.Clock, sim.Timer and the root package's Scenario: a struct holding a *sim.Kernel three fields deep is as
// restricted as the kernel itself. Waive individual findings with
// //lint:ownership <reason>.
var KernelOwnership = &Analyzer{
	Name:      "kernel-ownership",
	Doc:       "goroutine-reachable code must not share sim.Kernel/scope/Scenario state via captures, globals, channels, or go-statement arguments",
	RunModule: runKernelOwnership,
}

// restrictedRootNames are the type names whose containment closure defines
// "restricted state", keyed by where they live: the sim package (matched
// by import-path suffix, so fixtures can fake it) and the module root.
var restrictedSimNames = []string{"Kernel", "Scope", "Clock", "Timer"}
var restrictedRootNames = []string{"Scenario"}

func isSimPath(path string) bool {
	return path == "sim" || strings.HasSuffix(path, "/sim")
}

// restrictedTypes collects the root restricted named types from the loaded
// module.
func restrictedTypes(pkgs []*Package) map[*types.TypeName]bool {
	roots := make(map[*types.TypeName]bool)
	add := func(pkg *Package, names []string) {
		for _, name := range names {
			if obj, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok {
				roots[obj] = true
			}
		}
	}
	for _, pkg := range pkgs {
		if isSimPath(pkg.Path) {
			add(pkg, restrictedSimNames)
		}
		if pkg.Dir == "" {
			add(pkg, restrictedRootNames)
		}
	}
	return roots
}

// restrictedChecker memoizes the containment-closure test.
type restrictedChecker struct {
	roots map[*types.TypeName]bool
	memo  map[types.Type]bool
}

func newRestrictedChecker(pkgs []*Package) *restrictedChecker {
	return &restrictedChecker{
		roots: restrictedTypes(pkgs),
		memo:  make(map[types.Type]bool),
	}
}

// restricted reports whether t is or contains a restricted root type.
// Function types and non-root interfaces break the traversal: a func value
// or an abstract interface does not by itself grant access to the state
// (this is a documented soundness limit — a closure over a kernel hidden
// behind func() is not seen here, but the capture rule catches the closure
// at its creation site).
func (c *restrictedChecker) restricted(t types.Type) bool {
	if t == nil {
		return false
	}
	if v, ok := c.memo[t]; ok {
		return v
	}
	c.memo[t] = false // cycle guard: assume clean while recursing
	v := c.restrictedUncached(t)
	c.memo[t] = v
	return v
}

func (c *restrictedChecker) restrictedUncached(t types.Type) bool {
	switch u := t.(type) {
	case *types.Named:
		if c.roots[u.Obj()] {
			return true
		}
		return c.restricted(u.Underlying())
	case *types.Alias:
		return c.restricted(types.Unalias(u))
	case *types.Pointer:
		return c.restricted(u.Elem())
	case *types.Slice:
		return c.restricted(u.Elem())
	case *types.Array:
		return c.restricted(u.Elem())
	case *types.Chan:
		return c.restricted(u.Elem())
	case *types.Map:
		return c.restricted(u.Key()) || c.restricted(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if c.restricted(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

func runKernelOwnership(mp *ModulePass) {
	chk := newRestrictedChecker(mp.Pkgs)
	if len(chk.roots) == 0 {
		return // fixture module without a sim package: nothing to protect
	}

	waived := func(pos token.Pos) bool { return mp.Waiver(pos, "ownership") }

	// Rule 1 — spawn sites: arguments and receivers of the spawned call.
	// Also collect the spawn roots for the reachability pass, noting which
	// nodes are the spawned entry closures themselves.
	var roots []*FuncNode
	spawned := make(map[*FuncNode]bool)
	for _, n := range mp.Graph.Nodes {
		for _, gs := range n.GoSpawns {
			if gs.Callee != nil {
				roots = append(roots, gs.Callee)
				spawned[gs.Callee] = true
			}
			if waived(gs.Pos) {
				continue
			}
			args := gs.Call.Args
			if sel, ok := ast.Unparen(gs.Call.Fun).(*ast.SelectorExpr); ok {
				// method value receiver participates in the transfer
				args = append([]ast.Expr{sel.X}, args...)
			}
			for _, arg := range args {
				tv, ok := n.Pkg.Info.Types[arg]
				if !ok || !chk.restricted(tv.Type) {
					continue
				}
				mp.Reportf(gs.Pos,
					"go statement passes restricted state (%s) into a new goroutine while the spawner keeps its reference; transfer ownership through a channel of plain job descriptors instead, or waive with //lint:ownership <reason>",
					types.TypeString(tv.Type, nil))
			}
		}
	}

	reachable := mp.Graph.Reachable(roots, true)

	// Rules 2 and 3 — captures and globals in goroutine-reachable code.
	for _, n := range mp.Graph.Nodes {
		if !reachable[n] {
			continue
		}
		span := n.Span()
		seen := make(map[types.Object]bool)
		n.InspectOwn(func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := n.Pkg.Info.Uses[id].(*types.Var)
			if !ok || obj.IsField() || seen[obj] {
				return true
			}
			if !chk.restricted(obj.Type()) {
				return true
			}
			if obj.Parent() == n.Pkg.Types.Scope() {
				seen[obj] = true
				if !waived(id.Pos()) {
					mp.Reportf(id.Pos(),
						"goroutine-reachable code reads package-level variable %s carrying restricted state (%s); kernel state must be goroutine-local, received via parameters — or waive with //lint:ownership <reason>",
						obj.Name(), types.TypeString(obj.Type(), nil))
				}
				return true
			}
			if spawned[n] && n.Lit != nil && (obj.Pos() < span.Pos() || obj.Pos() >= span.End()) {
				seen[obj] = true
				if !waived(id.Pos()) {
					mp.Reportf(id.Pos(),
						"goroutine closure captures %s (restricted type %s) from the spawning frame; both goroutines can now reach the state — hand it over through a channel of plain job data, or waive with //lint:ownership <reason>",
						obj.Name(), types.TypeString(obj.Type(), nil))
				}
			}
			return true
		})
	}

	// Rule 4 — channels of restricted element type, module-wide.
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(x ast.Node) bool {
				ch, ok := x.(*ast.ChanType)
				if !ok {
					return true
				}
				tv, ok := pkg.Info.Types[ch.Value]
				if !ok || !chk.restricted(tv.Type) {
					return true
				}
				if !waived(ch.Pos()) {
					mp.Reportf(ch.Pos(),
						"channel element type %s carries restricted state across goroutines; send plain job/result data and keep kernels goroutine-local — or waive with //lint:ownership <reason>",
						types.TypeString(tv.Type, nil))
				}
				return true
			})
		}
	}
}
