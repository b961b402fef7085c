package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NondetTaint owns the nondeterminism sources. It reports each source at
// its own line and closes the loophole of hiding one behind a helper by
// propagating it through the static call graph. The sources are:
//
//   - time.Now/Sleep/... (the wallclockFuncs set)
//   - package-level math/rand functions (the globalRandFuncs set)
//   - select statements (outside declared //lint:concurrency-layer packages)
//   - every range over a map, or over a type parameter whose constraint
//     admits only maps: Go randomizes the visit order, so the loop's
//     effects may differ between runs of one seed. Iterate a slice or the
//     sorted keys instead; //lint:ordered <reason> waives one range and
//     the ranges nested in it
//
// Reach: a global-rand draw is reported anywhere in the module, cmd/ and
// examples/ included; the other sources are reported in the
// determinism-bound packages (internal/ plus the module root — the public
// scenario API replays runs too). cmd/ and examples/ are drivers and may
// read the wall clock.
//
// Taint propagates backwards from the source-bearing functions of bound
// packages, following both call edges and function-value bind edges (a
// helper stored as an event callback taints the function that bound it).
// Every unwaived edge from bound code into a tainted function is reported
// with the shortest path to the source, so a helper three calls away from
// time.Now() is flagged at every entry point that can reach it.
//
// Waivers: //lint:nondet <reason> on a source line removes the source from
// propagation and, in the module root, silences its line; inside
// internal/, and for global rand anywhere, the source line stays a finding.
// On a call/reference line the waiver cuts the taint path at that edge
// (the caller and everything above it stay clean through this edge).
var NondetTaint = &Analyzer{
	Name:      "nondet-taint",
	RunModule: runNondetTaint,
}

// wallclockFuncs are the package time functions that read or wait on the
// machine's real clock. time.Duration arithmetic, constants and formatting
// stay legal — only the listed entry points leak wall time.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions backed by the process-global source. Constructing an explicit
// seeded generator (rand.New, rand.NewSource, rand.NewPCG, rand.NewZipf)
// stays legal — that is exactly what the contract demands.
var globalRandFuncs = map[string]map[string]bool{
	"math/rand": {
		"Int": true, "Intn": true, "Int31": true, "Int31n": true,
		"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
		"Float32": true, "Float64": true, "ExpFloat64": true,
		"NormFloat64": true, "Perm": true, "Shuffle": true,
		"Seed": true, "Read": true,
	},
	"math/rand/v2": {
		"Int": true, "IntN": true, "Int32": true, "Int32N": true,
		"Int64": true, "Int64N": true, "N": true, "Uint": true,
		"UintN": true, "Uint32": true, "Uint32N": true, "Uint64": true,
		"Uint64N": true, "Float32": true, "Float64": true,
		"ExpFloat64": true, "NormFloat64": true, "Perm": true,
		"Shuffle": true,
	},
}

// taintBound reports whether the module-relative directory is bound by the
// determinism contract: internal/ and the module root.
func taintBound(dir string) bool {
	return dir == "" || isInternal(dir)
}

// taintSource is one nondeterminism source site.
type taintSource struct {
	kind string // e.g. "time.Now", "rand.Intn", "select", "map range"
	pos  token.Pos
}

// message renders the finding reported at the source's own line.
func (s taintSource) message() string {
	switch {
	case strings.HasPrefix(s.kind, "time."):
		return s.kind + " reads the wall clock; use the sim kernel's virtual clock (sim.Clock) instead"
	case strings.HasPrefix(s.kind, "rand."):
		return s.kind + " uses the global math/rand source; draw from a seeded *rand.Rand (sim.Clock.Rand) instead"
	case s.kind == "select":
		return "select statement: channel readiness is nondeterministic and bypasses the event kernel's single-threaded replay"
	}
	return "range over a map visits keys in random order: iterate a slice or the sorted keys instead, or waive with //lint:ordered <reason>"
}

// taintTrace records, for one tainted function, the shortest route to a
// source: the source itself and the next function along the path (nil when
// the function contains the source directly).
type taintTrace struct {
	src  taintSource
	next *FuncNode
}

func runNondetTaint(mp *ModulePass) {
	// Phase 1: collect and report sources. Sources of bound packages are
	// attributed to the innermost enclosing function for propagation; one
	// outside any function (a package-level initializer) cannot propagate.
	perNode := make(map[*FuncNode][]taintSource)
	for _, pkg := range mp.Pkgs {
		bound := taintBound(pkg.Dir)
		for _, src := range collectTaintSources(mp, pkg, bound) {
			waived := mp.Waiver(src.pos, "nondet")
			if !waived || isInternal(pkg.Dir) || strings.HasPrefix(src.kind, "rand.") {
				mp.Reportf(src.pos, "%s", src.message())
			}
			if !bound || waived {
				continue
			}
			if n := mp.Graph.NodeAt(src.pos); n != nil {
				perNode[n] = append(perNode[n], src)
			}
		}
	}

	// Phase 2: fixpoint. BFS from the source-bearing functions backwards
	// over call and bind edges, skipping waived edges and callers outside
	// the bound packages.
	tainted := make(map[*FuncNode]taintTrace)
	var queue []*FuncNode
	for _, n := range mp.Graph.Nodes {
		if srcs := perNode[n]; len(srcs) > 0 {
			tainted[n] = taintTrace{src: srcs[0]}
			queue = append(queue, n)
		}
	}
	// Reverse adjacency over bound callers only.
	callers := make(map[*FuncNode][]Edge) // callee -> edges (Callee field reused as the CALLER here)
	for _, n := range mp.Graph.Nodes {
		if !taintBound(n.Pkg.Dir) {
			continue
		}
		for _, e := range n.Calls {
			callers[e.Callee] = append(callers[e.Callee], Edge{Callee: n, Pos: e.Pos})
		}
		for _, e := range n.Binds {
			callers[e.Callee] = append(callers[e.Callee], Edge{Callee: n, Pos: e.Pos})
		}
	}
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		for _, e := range callers[g] {
			caller := e.Callee
			if _, seen := tainted[caller]; seen {
				continue
			}
			if mp.Waiver(e.Pos, "nondet") {
				continue
			}
			tainted[caller] = taintTrace{src: tainted[g].src, next: g}
			queue = append(queue, caller)
		}
	}

	// taintPath renders the shortest path from a tainted function to its
	// source, e.g. "drive -> helper at internal/x/y.go:12".
	taintPath := func(n *FuncNode) string {
		var b strings.Builder
		cur := n
		for i := 0; ; i++ {
			if i > 0 {
				b.WriteString(" -> ")
			}
			b.WriteString(cur.ID)
			tr := tainted[cur]
			if tr.next == nil {
				pos := mp.fset.Position(tr.src.pos)
				fmt.Fprintf(&b, " at %s:%d", pos.Filename, pos.Line)
				return b.String()
			}
			cur = tr.next
		}
	}

	// Phase 3: cascade findings — every unwaived edge from a bound
	// function into a tainted function, with the path to the source.
	for _, n := range mp.Graph.Nodes {
		if !taintBound(n.Pkg.Dir) {
			continue
		}
		for _, set := range []struct {
			verb  string
			edges []Edge
		}{{"call to", n.Calls}, {"reference to", n.Binds}} {
			for _, e := range set.edges {
				tr, isTainted := tainted[e.Callee]
				if !isTainted || mp.Waiver(e.Pos, "nondet") {
					continue
				}
				mp.Reportf(e.Pos,
					"%s %s reaches nondeterminism source %s (%s); make the callee deterministic or waive this edge with //lint:nondet <reason>",
					set.verb, e.Callee.ID, tr.src.kind, taintPath(e.Callee))
			}
		}
	}
}

// collectTaintSources scans one package for nondeterminism sources: global
// rand draws everywhere, and in a bound package the wall-clock reads,
// selects outside a concurrency layer, and unwaived map ranges too.
func collectTaintSources(mp *ModulePass, pkg *Package, bound bool) []taintSource {
	var out []taintSource
	_, isLayer, _ := ConcurrencyLayer(pkg)
	for _, f := range mp.sourceFiles(pkg) {
		var waivedEnd token.Pos // end of the innermost //lint:ordered range
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				pkgPath, name, ok := packageMember(pkg, x)
				if !ok {
					return true
				}
				if funcs, banned := globalRandFuncs[pkgPath]; banned && funcs[name] {
					out = append(out, taintSource{kind: "rand." + name, pos: x.Pos()})
				}
				if bound && pkgPath == "time" && wallclockFuncs[name] {
					out = append(out, taintSource{kind: "time." + name, pos: x.Pos()})
				}
			case *ast.SelectStmt:
				if bound && !isLayer {
					out = append(out, taintSource{kind: "select", pos: x.Pos()})
				}
			case *ast.RangeStmt:
				// A waiver covers the map ranges nested in its statement.
				if !bound || x.Pos() < waivedEnd || !isMap(pkg.Info.TypeOf(x.X)) {
					return true
				}
				if mp.Waiver(x.Pos(), "ordered") {
					waivedEnd = x.End()
				} else {
					out = append(out, taintSource{kind: "map range", pos: x.Pos()})
				}
			}
			return true
		})
	}
	return out
}

// isMap reports whether t is a map or a type parameter whose constraint
// admits only maps (ranging one still visits its keys in random order).
func isMap(t types.Type) bool {
	if tp, ok := t.(*types.TypeParam); ok {
		t = tp.Constraint()
	}
	switch u := t.Underlying().(type) {
	case *types.Map:
		return true
	case *types.Union:
		for i := 0; i < u.Len(); i++ {
			if !isMap(u.Term(i).Type()) {
				return false
			}
		}
		return u.Len() > 0
	case *types.Interface:
		for i := 0; i < u.NumEmbeddeds(); i++ {
			if isMap(u.EmbeddedType(i)) {
				return true
			}
		}
	}
	return false
}
