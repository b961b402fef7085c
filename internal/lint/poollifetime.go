package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PoolLifetime checks the freelist discipline the PR 4–5 hot paths depend
// on. The simulator pools its high-churn records — sim.eventItem,
// medium's delivery, routing's cachedRoute/hopEntry/discoveryState/
// pendingForward, packet's reference-counted frames —
// and a released entry is immediately eligible for re-acquisition, so any
// read after release observes another event's data and silently corrupts a
// run without tripping a single runtime assertion.
//
// Pools are discovered by shape, not by name registration: a *release*
// function is one whose pointer parameter is appended to a free-list field
// of its receiver (`k.free = append(k.free, item)`) — with the guard that
// either the field starts with "free" or the function name looks like a
// release (recycle/release/free/put), so ordinary collection helpers don't
// get misread as pools. The appended parameter's type becomes a pooled
// type and the receiver its owner. A method on a pooled record that hands
// its receiver to a release, directly or through another such method, is
// a release too: packet.Packet.Release reaches Pool.recycle, so
// `p.Release()` ends p's lifetime.
//
// Checked, per function, over straight-line statement sequences (a release
// inside a nested block is not tracked past that block — documented limit):
//
//   - use-after-release: any read of a released pointer in a later
//     statement of the same block
//   - double-release: the released pointer handed to a release again
//   - escape: a pooled pointer stored into a struct that is neither the
//     pool owner nor another pooled record (e.g. a long-lived handle),
//     via field assignment or composite literal
//
// Waive with //lint:pooled <reason> — the canonical waived case is a
// generation-fenced handle like sim.Timer, which stores the pooled pointer
// on purpose and validates it against a generation counter on every use.
var PoolLifetime = &Analyzer{
	Name:      "pool-lifetime",
	RunModule: runPoolLifetime,
}

// poolInfo describes one discovered pool.
type poolInfo struct {
	record *types.TypeName // the pooled record type (eventItem, ...)
	owner  *types.TypeName // the type holding the free list (Kernel, ...)
}

// releaseFunc describes one discovered release function: calling it with a
// pooled pointer ends that pointer's lifetime.
type releaseFunc struct {
	param int  // index of the pooled parameter, when !recv
	recv  bool // the method releases its own receiver
	pool  *poolInfo
}

func releaseLikeName(name string) bool {
	lower := strings.ToLower(name)
	for _, p := range []string{"recycle", "release", "free", "put"} {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return false
}

// discoverPools scans every function for the free-append shape and returns
// the pooled types and release functions.
func discoverPools(mp *ModulePass) (map[*types.TypeName]*poolInfo, map[*types.Func]*releaseFunc) {
	pools := make(map[*types.TypeName]*poolInfo)
	releases := make(map[*types.Func]*releaseFunc)
	for _, n := range mp.Graph.Nodes {
		if n.Obj == nil {
			continue
		}
		sig := n.Obj.Type().(*types.Signature)
		params := sig.Params()
		n.InspectOwn(func(x ast.Node) bool {
			assign, ok := x.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
				return true
			}
			lhs, ok := ast.Unparen(assign.Lhs[0]).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
				return true
			}
			field, ok := n.Pkg.Info.Uses[lhs.Sel].(*types.Var)
			if !ok {
				return true
			}
			// The appended value must be a parameter of this function.
			appended, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := n.Pkg.Info.Uses[appended].(*types.Var)
			if !ok {
				return true
			}
			idx := -1
			for i := 0; i < params.Len(); i++ {
				if params.At(i) == obj {
					idx = i
				}
			}
			if idx < 0 {
				return true
			}
			record := namedOf(obj.Type())
			recvOwner := recvNamed(sig)
			if record == nil || recvOwner == nil {
				return true
			}
			if !strings.HasPrefix(field.Name(), "free") && !releaseLikeName(n.Obj.Name()) {
				return true
			}
			pool := pools[record]
			if pool == nil {
				pool = &poolInfo{record: record, owner: recvOwner}
				pools[record] = pool
			}
			releases[n.Obj] = &releaseFunc{param: idx, pool: pool}
			return true
		})
	}
	// Release methods on the records themselves, to a fixed point so a
	// method that reaches the pool through another one is found too.
	for found := true; found; {
		found = false
		for _, n := range mp.Graph.Nodes {
			if n.Obj == nil || releases[n.Obj] != nil {
				continue
			}
			recv := n.Obj.Type().(*types.Signature).Recv()
			if recv == nil || pools[namedOf(recv.Type())] == nil {
				continue
			}
			n.InspectOwn(func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok && releases[n.Obj] == nil {
					if id := releasedArg(n, call, releases); id != nil && n.Pkg.Info.Uses[id] == recv {
						releases[n.Obj] = &releaseFunc{recv: true, pool: pools[namedOf(recv.Type())]}
						found = true
					}
				}
				return releases[n.Obj] == nil
			})
		}
	}
	return pools, releases
}

// releasedArg returns the identifier whose pooled value call releases —
// the pooled argument of a release function, or the receiver of a
// release method — or nil when call releases nothing by name.
func releasedArg(n *FuncNode, call *ast.CallExpr, releases map[*types.Func]*releaseFunc) *ast.Ident {
	var fn *types.Func
	var recvExpr ast.Expr
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = n.Pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = n.Pkg.Info.Uses[fun.Sel].(*types.Func)
		recvExpr = fun.X
	}
	rel, ok := releases[fn]
	if !ok {
		return nil
	}
	arg := recvExpr
	if !rel.recv {
		if rel.param >= len(call.Args) {
			return nil
		}
		arg = call.Args[rel.param]
	}
	id, _ := ast.Unparen(arg).(*ast.Ident)
	return id
}

// namedOf unwraps pointers down to the named (struct) type, or nil.
func namedOf(t types.Type) *types.TypeName {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u.Obj()
		case *types.Alias:
			t = types.Unalias(u)
		default:
			return nil
		}
	}
}

func recvNamed(sig *types.Signature) *types.TypeName {
	if sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

func runPoolLifetime(mp *ModulePass) {
	pools, releases := discoverPools(mp)
	if len(pools) == 0 {
		return
	}
	pooled := func(t types.Type) *poolInfo {
		if name := namedOf(t); name != nil {
			return pools[name]
		}
		return nil
	}

	for _, n := range mp.Graph.Nodes {
		checkReleaseFlow(mp, n, releases, pooled)
		checkEscapes(mp, n, pooled)
	}
}

// stopAtNested keeps a statement inspection from descending into nested
// statement bodies (if/for/switch/select arms): a release buried in a
// conditional branch — typically `recycle(it); continue` — does not
// dominate the statements after it, so treating it as a straight-line
// release would fabricate use-after-release findings.
func stopAtNested(root ast.Stmt, x ast.Node) bool {
	switch x.(type) {
	case *ast.BlockStmt:
		return x != root
	case *ast.CaseClause, *ast.CommClause:
		return true
	}
	return false
}

// releaseCallsIn returns, for each release call at stmt's own nesting
// level, the identifier of the released local, in source order.
func releaseCallsIn(n *FuncNode, stmt ast.Stmt, releases map[*types.Func]*releaseFunc) []*ast.Ident {
	var out []*ast.Ident
	ast.Inspect(stmt, func(x ast.Node) bool {
		if x != nil && stopAtNested(stmt, x) {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if arg := releasedArg(n, call, releases); arg != nil && n.Pkg.Info.Uses[arg] != nil {
			out = append(out, arg)
		}
		return true
	})
	// The free-append shape itself is also a release site (a pool method
	// releasing inline rather than through a helper).
	ast.Inspect(stmt, func(x ast.Node) bool {
		if x != nil && stopAtNested(stmt, x) {
			return false
		}
		assign, ok := x.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			return true
		}
		lhs, ok := ast.Unparen(assign.Lhs[0]).(*ast.SelectorExpr)
		if !ok || !strings.HasPrefix(lhs.Sel.Name, "free") {
			return true
		}
		arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
		if !ok {
			return true
		}
		obj := n.Pkg.Info.Uses[arg]
		if obj == nil {
			return true
		}
		// Only pooled types count.
		if namedOf(obj.Type()) == nil {
			return true
		}
		out = append(out, arg)
		return true
	})
	return out
}

// checkReleaseFlow walks each statement block of the node in order,
// tracking which pooled locals have been released and flagging later uses.
func checkReleaseFlow(mp *ModulePass, n *FuncNode, releases map[*types.Func]*releaseFunc, pooled func(types.Type) *poolInfo) {
	n.InspectOwn(func(x ast.Node) bool {
		block, ok := x.(*ast.BlockStmt)
		if !ok {
			return true
		}
		released := make(map[types.Object]token.Pos)
		for _, stmt := range block.List {
			var relHere []types.Object
			relObjs := make(map[types.Object]bool)
			relIdents := make(map[*ast.Ident]bool)
			for _, id := range releaseCallsIn(n, stmt, releases) {
				obj := n.Pkg.Info.Uses[id]
				if pooled(obj.Type()) == nil {
					continue
				}
				relHere = append(relHere, obj)
				relObjs[obj] = true
				relIdents[id] = true
			}
			// A plain `x = ...` target is a write, not a read of the
			// released value — a released local may be refilled from the
			// pool. Collect those idents so the use scan skips them.
			overwritten := make(map[*ast.Ident]bool)
			if assign, ok := stmt.(*ast.AssignStmt); ok {
				for _, lhs := range assign.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						overwritten[id] = true
					}
				}
			}
			// Uses of already-released pooled locals in this statement.
			ast.Inspect(stmt, func(y ast.Node) bool {
				if y != nil && stopAtNested(stmt, y) {
					return false // nested blocks get their own fresh scan
				}
				id, ok := y.(*ast.Ident)
				if !ok || overwritten[id] {
					return true
				}
				obj := n.Pkg.Info.Uses[id]
				if obj == nil {
					return true
				}
				relPos, wasReleased := released[obj]
				if !wasReleased {
					return true
				}
				if mp.Waiver(id.Pos(), "pooled") {
					return true
				}
				relLine := mp.fset.Position(relPos).Line
				if relIdents[id] || relObjs[obj] {
					mp.Reportf(id.Pos(),
						"pooled %s released twice (first released at line %d); the second release corrupts the freelist — or waive with //lint:pooled <reason>",
						obj.Name(), relLine)
				} else {
					mp.Reportf(id.Pos(),
						"use of pooled %s after its release at line %d: the entry may already be re-acquired by another caller; copy the fields you need before releasing — or waive with //lint:pooled <reason>",
						obj.Name(), relLine)
				}
				return true
			})
			// Reassignment gives the variable a fresh value: clear state.
			if assign, ok := stmt.(*ast.AssignStmt); ok {
				for _, lhs := range assign.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if obj := n.Pkg.Info.Defs[id]; obj != nil {
							delete(released, obj)
						} else if obj := n.Pkg.Info.Uses[id]; obj != nil {
							delete(released, obj)
						}
					}
				}
			}
			relPos := stmt.Pos()
			for _, obj := range relHere {
				if _, already := released[obj]; !already {
					released[obj] = relPos
				}
			}
		}
		return true
	})
}

// checkEscapes flags pooled pointers stored into types that are neither
// the pool owner nor a pooled record: field assignments and struct
// composite literals.
func checkEscapes(mp *ModulePass, n *FuncNode, pooled func(types.Type) *poolInfo) {
	allowedTarget := func(t *types.TypeName, pool *poolInfo) bool {
		if t == nil {
			return false // couldn't resolve: stay quiet, not noisy
		}
		return t == pool.owner || t == pool.record
	}
	n.InspectOwn(func(x ast.Node) bool {
		switch stmt := x.(type) {
		case *ast.AssignStmt:
			if len(stmt.Lhs) != len(stmt.Rhs) {
				return true
			}
			for i, lhs := range stmt.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				tv, ok := n.Pkg.Info.Types[stmt.Rhs[i]]
				if !ok {
					continue
				}
				pool := pooled(tv.Type)
				if pool == nil {
					continue
				}
				baseTV, ok := n.Pkg.Info.Types[sel.X]
				if !ok || allowedTarget(namedOf(baseTV.Type), pool) {
					continue
				}
				if namedOf(baseTV.Type) == nil {
					continue
				}
				if mp.Waiver(stmt.Pos(), "pooled") {
					continue
				}
				mp.Reportf(stmt.Pos(),
					"pooled %s stored into %s, which outlives the pool's ownership of the entry; fence it with a generation counter and waive with //lint:pooled <reason>, or copy the data instead",
					pool.record.Name(), namedOf(baseTV.Type).Name())
			}
		case *ast.CompositeLit:
			tv, ok := n.Pkg.Info.Types[stmt]
			if !ok {
				return true
			}
			target := namedOf(tv.Type)
			if _, isStruct := tv.Type.Underlying().(*types.Struct); !isStruct {
				return true
			}
			for _, elt := range stmt.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				vtv, ok := n.Pkg.Info.Types[val]
				if !ok {
					continue
				}
				pool := pooled(vtv.Type)
				if pool == nil || allowedTarget(target, pool) {
					continue
				}
				if mp.Waiver(val.Pos(), "pooled") || mp.Waiver(stmt.Pos(), "pooled") {
					continue
				}
				mp.Reportf(val.Pos(),
					"pooled %s stored into composite literal of %s, which outlives the pool's ownership of the entry; fence it with a generation counter and waive with //lint:pooled <reason>, or copy the data instead",
					pool.record.Name(), target.Name())
			}
		}
		return true
	})
}
