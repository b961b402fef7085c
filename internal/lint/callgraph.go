package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural half of the engine: a static call graph
// over every function and function literal in the module. A per-line
// check catches a violation at the line that commits it; the graph lets
// nondet-taint, pool-lifetime and kernel-ownership reason about what a
// function *reaches*, which is the property the determinism contract
// actually cares about.
//
// Soundness limits, by construction (documented in DESIGN.md §6.8):
//
//   - Calls through interface methods produce no edge: the callee set of a
//     dynamic dispatch is unknowable without whole-program type inference.
//     The simulator's interfaces (sim.Clock above all) sit on the clean
//     side of the boundary, and the restricted-type rules in
//     kernel-ownership treat sim.Clock itself as restricted, which closes
//     the laundering hole that matters.
//   - Calls through function-typed values produce no call edge either, but
//     *referencing* a function as a value produces a bind edge from the
//     referencing function, so taint still reaches the binder — the
//     function that decided the callback might run. The invoker of an
//     opaque func value is not linked.
//   - The standard library is not traversed. Only direct uses of the
//     listed nondeterminism entry points count as sources.
type FuncNode struct {
	// Obj is the declared function or method; nil for function literals.
	Obj *types.Func
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Parent is the enclosing function for literals, nil for declarations.
	Parent *FuncNode
	// Pkg is the package the function is declared in.
	Pkg *Package
	// Decl is the declaration node (nil for literals).
	Decl *ast.FuncDecl
	// ID is the stable human-readable identity, e.g.
	// "liteworp/internal/sim.(*Kernel).Post" or "….Run$1" for the first
	// literal inside Run.
	ID string
	// Calls are resolved static call edges; Binds are value references to
	// module functions (method values, callbacks passed or stored).
	Calls []Edge
	Binds []Edge
	// GoSpawns are the go statements whose call appears directly in this
	// node's own statements.
	GoSpawns []GoSite

	body ast.Node // Decl.Body or Lit.Body
	lits int      // literal counter for child IDs
}

// Edge is one resolved call or bind from a node to a module function.
type Edge struct {
	Callee *FuncNode
	Pos    token.Pos
}

// GoSite is one go statement: the spawned call, and the static callee node
// when the spawned function is a module function or literal (nil for a
// dynamic func value).
type GoSite struct {
	Call   *ast.CallExpr
	Callee *FuncNode
	Pos    token.Pos
}

// Graph is the module call graph.
type Graph struct {
	// Nodes in deterministic order (package path, then source position).
	Nodes []*FuncNode

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode
	byID  map[string]*FuncNode
}

// NodeByID returns the node with the given ID, or nil.
func (g *Graph) NodeByID(id string) *FuncNode { return g.byID[id] }

// FuncID renders the stable identity of a declared function:
// "<pkg path>.<name>" for package functions, "<pkg path>.(<recv>).<name>"
// for methods (pointer receivers keep their star).
func FuncID(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		name := ""
		if ptr, ok := recv.(*types.Pointer); ok {
			name = "*" + namedName(ptr.Elem())
		} else {
			name = namedName(recv)
		}
		return fmt.Sprintf("%s.(%s).%s", pkg, name, fn.Name())
	}
	return pkg + "." + fn.Name()
}

func namedName(t types.Type) string {
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return t.Obj().Name()
	}
	return t.String()
}

// BuildGraph constructs the call graph for the loaded packages. Packages
// must share one FileSet (which LoadModule and LoadSource guarantee).
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		byObj: make(map[*types.Func]*FuncNode),
		byLit: make(map[*ast.FuncLit]*FuncNode),
		byID:  make(map[string]*FuncNode),
	}
	if len(pkgs) == 0 {
		return g
	}

	// Pass 1: one node per function declaration and per function literal.
	// Literals get IDs derived from their lexical parent so the graph is
	// stable across runs.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			g.collectNodes(pkg, f)
		}
	}

	// Pass 2: edges. A single traversal per file tracks the innermost
	// enclosing node so call sites inside literals attach to the literal's
	// node, not the declaration's.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			g.collectEdges(pkg, f)
		}
	}

	sort.Slice(g.Nodes, func(i, j int) bool {
		a, b := g.Nodes[i], g.Nodes[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		return a.body.Pos() < b.body.Pos()
	})
	return g
}

// collectNodes creates nodes for every FuncDecl and FuncLit in f; literal
// IDs derive from their lexical parent.
func (g *Graph) collectNodes(pkg *Package, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if decl, ok := n.(*ast.FuncDecl); ok {
			if decl.Body == nil {
				return false
			}
			obj, _ := pkg.Info.Defs[decl.Name].(*types.Func)
			if obj == nil {
				return false
			}
			node := &FuncNode{Obj: obj, Pkg: pkg, Decl: decl, ID: FuncID(obj), body: decl.Body}
			g.add(node)
			g.byObj[obj] = node
			g.walkBody(decl.Body, node, pkg)
			return false
		}
		return true
	})
}

// walkBody descends into body creating nodes for nested literals,
// recursing per literal so IDs reflect lexical nesting.
func (g *Graph) walkBody(body ast.Node, owner *FuncNode, pkg *Package) {
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		owner.lits++
		node := &FuncNode{
			Lit:    lit,
			Parent: owner,
			Pkg:    pkg,
			ID:     fmt.Sprintf("%s$%d", owner.ID, owner.lits),
			body:   lit.Body,
		}
		g.add(node)
		g.byLit[lit] = node
		g.walkBody(lit.Body, node, pkg)
		return false
	})
}

func (g *Graph) add(n *FuncNode) {
	g.Nodes = append(g.Nodes, n)
	g.byID[n.ID] = n
}

// collectEdges resolves call, bind and go-spawn edges for every node in f.
func (g *Graph) collectEdges(pkg *Package, f *ast.File) {
	// callFuns marks expressions appearing in call position, so a later
	// Ident/Selector visit can tell a call from a value reference.
	// selIdents marks the Sel of every selector, which the Ident case must
	// skip — the SelectorExpr visit already handled the reference, and
	// re-binding the bare Sel would double-count every method mention.
	callFuns := make(map[ast.Expr]bool)
	selIdents := make(map[*ast.Ident]bool)
	var cur *FuncNode

	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body == nil {
					return false
				}
				obj, _ := pkg.Info.Defs[x.Name].(*types.Func)
				node := g.byObj[obj]
				if node == nil {
					return false
				}
				prev := cur
				cur = node
				walk(x.Body)
				cur = prev
				return false
			case *ast.FuncLit:
				node := g.byLit[x]
				if node == nil {
					return false
				}
				if cur != nil {
					// Defining a literal is a bind: the definer decided
					// this code may run.
					cur.Binds = append(cur.Binds, Edge{Callee: node, Pos: x.Pos()})
				}
				prev := cur
				cur = node
				walk(x.Body)
				cur = prev
				return false
			case *ast.GoStmt:
				if cur != nil {
					site := GoSite{Call: x.Call, Pos: x.Pos()}
					site.Callee = g.staticCallee(pkg, x.Call)
					cur.GoSpawns = append(cur.GoSpawns, site)
				}
				return true
			case *ast.CallExpr:
				callFuns[x.Fun] = true
				if cur != nil {
					if callee := g.staticCallee(pkg, x); callee != nil {
						cur.Calls = append(cur.Calls, Edge{Callee: callee, Pos: x.Pos()})
					}
				}
				return true
			case *ast.Ident:
				if !selIdents[x] {
					g.maybeBind(pkg, cur, x, x, callFuns)
				}
				return true
			case *ast.SelectorExpr:
				selIdents[x.Sel] = true
				g.maybeBind(pkg, cur, x, x.Sel, callFuns)
				return true
			}
			return true
		})
	}
	walk(f)
}

// staticCallee resolves the module function a call statically targets:
// a plain identifier, a selector (package function or concrete method), or
// an immediately invoked literal. Dynamic calls yield nil.
func (g *Graph) staticCallee(pkg *Package, call *ast.CallExpr) *FuncNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return g.byObj[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return g.byObj[fn]
		}
	case *ast.FuncLit:
		return g.byLit[fun]
	}
	return nil
}

// maybeBind records a bind edge when expr references a module function as a
// value (not in call position): callbacks handed to schedulers, method
// values stored in fields, functions put in tables.
func (g *Graph) maybeBind(pkg *Package, cur *FuncNode, expr ast.Expr, name *ast.Ident, callFuns map[ast.Expr]bool) {
	if cur == nil || callFuns[expr] {
		return
	}
	fn, ok := pkg.Info.Uses[name].(*types.Func)
	if !ok {
		return
	}
	callee := g.byObj[fn]
	if callee == nil {
		return
	}
	cur.Binds = append(cur.Binds, Edge{Callee: callee, Pos: expr.Pos()})
}

// Reachable returns the set of nodes reachable from roots via call edges,
// plus bind edges when followBinds is set (a bound function may run, so
// analyses about "could execute on this goroutine" must follow them).
func (g *Graph) Reachable(roots []*FuncNode, followBinds bool) map[*FuncNode]bool {
	seen := make(map[*FuncNode]bool)
	var queue []*FuncNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		edges := n.Calls
		if followBinds {
			edges = append(append([]Edge{}, n.Calls...), n.Binds...)
		}
		for _, e := range edges {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				queue = append(queue, e.Callee)
			}
		}
	}
	return seen
}

// Span returns the node's full source extent: the literal for closures
// (parameters included), the declaration for named functions.
func (n *FuncNode) Span() ast.Node {
	if n.Lit != nil {
		return n.Lit
	}
	return n.Decl
}

// InspectOwn walks the node's own statements, excluding nested function
// literals (each literal is its own node).
func (n *FuncNode) InspectOwn(visit func(ast.Node) bool) {
	ast.Inspect(n.body, func(x ast.Node) bool {
		if x == nil {
			return true
		}
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return visit(x)
	})
}

// NodeAt returns the innermost function node whose body spans pos, or nil
// when pos sits outside every function (e.g. a package-level initializer).
func (g *Graph) NodeAt(pos token.Pos) *FuncNode {
	var best *FuncNode
	for _, n := range g.Nodes {
		if n.body.Pos() <= pos && pos < n.body.End() {
			if best == nil || n.body.Pos() > best.body.Pos() {
				best = n
			}
		}
	}
	return best
}

// DumpEdges renders the graph as sorted, deduplicated "caller -> callee
// [kind]" lines.
func (g *Graph) DumpEdges() []string {
	var out []string
	for _, n := range g.Nodes {
		for _, e := range n.Calls {
			out = append(out, fmt.Sprintf("%s -> %s [call]", n.ID, e.Callee.ID))
		}
		for _, e := range n.Binds {
			out = append(out, fmt.Sprintf("%s -> %s [bind]", n.ID, e.Callee.ID))
		}
		for _, s := range n.GoSpawns {
			callee := "(dynamic)"
			if s.Callee != nil {
				callee = s.Callee.ID
			}
			out = append(out, fmt.Sprintf("%s -> %s [go]", n.ID, callee))
		}
	}
	sort.Strings(out)
	// Collapse duplicate edges (a function may call the same callee many
	// times); the dump describes the relation, not the multiplicity.
	dedup := out[:0]
	prev := ""
	for _, line := range out {
		if line != prev {
			dedup = append(dedup, line)
			prev = line
		}
	}
	return dedup
}
