package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// mapRangeChecker finds the `for … range` statements over a map whose
// effects may depend on visit order. Go randomizes map iteration order on
// purpose, so such a loop injects per-run nondeterminism — worse, a loop
// that draws from the shared RNG inside such a range shifts the random
// stream for the entire rest of the simulation. nondet-taint treats every
// range it finds as a source.
//
// A loop is accepted without comment when it is order-insensitive by
// construction: its body only accumulates commutatively (+=, counters),
// writes map/slice slots keyed by the iteration variables, deletes keys,
// sets constants, or appends into a slice that the same function
// subsequently sorts. Everything else needs an explicit
// `//lint:ordered <reason>` waiver naming why order cannot matter; the
// waiver covers ranges nested inside the waived statement.
type mapRangeChecker struct {
	mp        *ModulePass
	pkg       *Package
	funcStack []*ast.BlockStmt // enclosing function bodies, innermost last
	nodeStack []ast.Node       // mirror of the inspect traversal for popping
	found     []*ast.RangeStmt
}

// unorderedMapRanges returns the map-range statements in f that the
// heuristic cannot prove order-insensitive and no //lint:ordered waiver
// covers.
func unorderedMapRanges(mp *ModulePass, pkg *Package, f *ast.File) []*ast.RangeStmt {
	c := &mapRangeChecker{mp: mp, pkg: pkg}
	c.walk(f)
	return c.found
}

func (c *mapRangeChecker) walk(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			top := c.nodeStack[len(c.nodeStack)-1]
			c.nodeStack = c.nodeStack[:len(c.nodeStack)-1]
			switch top.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				c.funcStack = c.funcStack[:len(c.funcStack)-1]
			}
			return true
		}
		switch fn := n.(type) {
		case *ast.FuncDecl:
			c.funcStack = append(c.funcStack, fn.Body)
		case *ast.FuncLit:
			c.funcStack = append(c.funcStack, fn.Body)
		case *ast.RangeStmt:
			if !c.check(fn) {
				// Waived: the justification covers nested ranges too,
				// so skip the subtree (no pop event when we return false).
				return false
			}
		}
		c.nodeStack = append(c.nodeStack, n)
		return true
	})
}

// check inspects one range statement and records it when unordered. It
// returns false when the statement carries a waiver, telling the walk to
// skip the loop body entirely.
func (c *mapRangeChecker) check(rs *ast.RangeStmt) bool {
	tv, ok := c.pkg.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return true
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return true
	}
	if c.mp.Waiver(rs.Pos(), "ordered") {
		return false
	}
	// A range that binds no variables runs indistinguishable iterations;
	// no permutation can change the outcome.
	if bindsVars(rs) && !c.orderInsensitive(rs) {
		c.found = append(c.found, rs)
	}
	return true
}

func bindsVars(rs *ast.RangeStmt) bool {
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			return true
		}
	}
	return false
}

// orderInsensitive applies the structural heuristic described on
// mapRangeChecker.
func (c *mapRangeChecker) orderInsensitive(rs *ast.RangeStmt) bool {
	vars := make(map[types.Object]bool)
	c.addLoopVars(rs, vars)
	return c.stmtsOK(rs.Body.List, rs, vars)
}

// addLoopVars records the objects bound by a range statement's key/value.
func (c *mapRangeChecker) addLoopVars(rs *ast.RangeStmt, vars map[types.Object]bool) {
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		if obj := c.pkg.Info.Defs[id]; obj != nil {
			vars[obj] = true
		} else if obj := c.pkg.Info.Uses[id]; obj != nil {
			vars[obj] = true
		}
	}
}

func (c *mapRangeChecker) stmtsOK(stmts []ast.Stmt, rs *ast.RangeStmt, vars map[types.Object]bool) bool {
	for _, s := range stmts {
		if !c.stmtOK(s, rs, vars) {
			return false
		}
	}
	return true
}

func (c *mapRangeChecker) stmtOK(stmt ast.Stmt, rs *ast.RangeStmt, vars map[types.Object]bool) bool {
	switch s := stmt.(type) {
	case nil:
		return true
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		return c.assignOK(s, rs, vars)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		// delete(m, k) is commutative across iterations.
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := c.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
				return c.callFreeAll(call.Args)
			}
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !c.stmtOK(s.Init, rs, vars) {
			return false
		}
		if !c.callFree(s.Cond) {
			return false
		}
		if !c.stmtsOK(s.Body.List, rs, vars) {
			return false
		}
		return c.stmtOK(s.Else, rs, vars)
	case *ast.SwitchStmt:
		// A switch is an if-chain: order-insensitive when the tag and case
		// expressions are call-free and every arm follows the same rules.
		if s.Init != nil && !c.stmtOK(s.Init, rs, vars) {
			return false
		}
		if !c.callFree(s.Tag) {
			return false
		}
		for _, cc := range s.Body.List {
			clause, ok := cc.(*ast.CaseClause)
			if !ok || !c.callFreeAll(clause.List) {
				return false
			}
			if !c.stmtsOK(clause.Body, rs, vars) {
				return false
			}
		}
		return true
	case *ast.BlockStmt:
		return c.stmtsOK(s.List, rs, vars)
	case *ast.RangeStmt:
		// A nested range: fine for the outer loop as long as the inner
		// body follows the same rules (the inner loop is independently
		// checked for map-ness by the main walk).
		if !c.callFree(s.X) {
			return false
		}
		inner := make(map[types.Object]bool, len(vars)+2)
		for k := range vars { //lint:ordered copying a set into a set
			inner[k] = true
		}
		c.addLoopVars(s, inner)
		return c.stmtsOK(s.Body.List, s, inner)
	case *ast.BranchStmt:
		// continue keeps iterations independent; break/goto make the
		// set of visited keys order-dependent.
		return s.Tok == token.CONTINUE
	default:
		return false
	}
}

func (c *mapRangeChecker) assignOK(s *ast.AssignStmt, rs *ast.RangeStmt, vars map[types.Object]bool) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
		// Commutative accumulation, as long as the operand itself is not
		// produced by a call (a call could consume shared state — e.g.
		// an RNG draw — in iteration order).
		return c.callFreeAll(s.Rhs)
	case token.DEFINE:
		if !c.callFreeAll(s.Rhs) {
			return false
		}
		// Loop-local definitions become iteration-derived values that
		// may key later writes.
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
				if obj := c.pkg.Info.Defs[id]; obj != nil {
					vars[obj] = true
				}
			}
		}
		return true
	case token.ASSIGN:
		// x = append(x, …) feeding a later sort.
		if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
			if c.appendAccumulateOK(s, rs) {
				return true
			}
		}
		for i, l := range s.Lhs {
			var rhs ast.Expr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			}
			if !c.plainAssignOK(l, rhs, vars) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// plainAssignOK accepts two shapes of `=`: a write into a map/slice slot
// keyed by an iteration-derived variable (each iteration touches its own
// slot), and an idempotent constant store (every iteration writes the
// same value, so order cannot matter).
func (c *mapRangeChecker) plainAssignOK(lhs, rhs ast.Expr, vars map[types.Object]bool) bool {
	if rhs == nil || !c.callFree(rhs) {
		return false
	}
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		return c.referencesVar(idx.Index, vars)
	}
	switch lhs.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return isConstExpr(rhs)
	}
	return false
}

// appendAccumulateOK matches `out = append(out, …)` where out is sorted
// later in the same function.
func (c *mapRangeChecker) appendAccumulateOK(s *ast.AssignStmt, rs *ast.RangeStmt) bool {
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := c.pkg.Info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	first, ok := call.Args[0].(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return false
	}
	obj := c.pkg.Info.Uses[lhs]
	if obj == nil {
		obj = c.pkg.Info.Defs[lhs]
	}
	if obj == nil || !c.callFreeAll(call.Args[1:]) {
		return false
	}
	return c.sortedLater(obj, rs.End())
}

// sortFuncs are the stdlib entry points that impose a total order on a
// slice accumulated from a map range.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Strings": true, "Ints": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedLater reports whether obj is passed to a stdlib sort after pos
// inside the innermost enclosing function.
func (c *mapRangeChecker) sortedLater(obj types.Object, pos token.Pos) bool {
	if len(c.funcStack) == 0 {
		return false
	}
	body := c.funcStack[len(c.funcStack)-1]
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgPath, name, ok := packageMember(c.pkg, sel)
		if !ok {
			return true
		}
		if funcs, ok := sortFuncs[pkgPath]; !ok || !funcs[name] {
			return true
		}
		arg := call.Args[0]
		// Unwrap one conversion layer, e.g. sort.Sort(sort.IntSlice(out)).
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			if tv, isType := c.pkg.Info.Types[conv.Fun]; isType && tv.IsType() {
				arg = conv.Args[0]
			}
		}
		if id, ok := arg.(*ast.Ident); ok && c.pkg.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// referencesVar reports whether expr mentions any iteration-derived
// variable.
func (c *mapRangeChecker) referencesVar(expr ast.Expr, vars map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pkg.Info.Uses[id]; obj != nil && vars[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// callFree reports whether expr contains no function or method calls other
// than len/cap and type conversions. Calls inside a map range may observe
// or advance shared state (the RNG above all) in iteration order, so the
// heuristic refuses to vouch for them.
func (c *mapRangeChecker) callFree(expr ast.Expr) bool {
	if expr == nil {
		return true
	}
	ok := true
	ast.Inspect(expr, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return ok
		}
		if tv, found := c.pkg.Info.Types[call.Fun]; found && tv.IsType() {
			return ok // conversion
		}
		if id, isIdent := call.Fun.(*ast.Ident); isIdent {
			if b, isBuiltin := c.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				switch b.Name() {
				case "len", "cap", "min", "max":
					return ok
				}
			}
		}
		ok = false
		return false
	})
	return ok
}

func (c *mapRangeChecker) callFreeAll(exprs []ast.Expr) bool {
	for _, e := range exprs {
		if !c.callFree(e) {
			return false
		}
	}
	return true
}

// isConstExpr recognizes literal constant stores: basic literals, true,
// false, nil, and unary minus on a literal.
func isConstExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return x.Name == "true" || x.Name == "false" || x.Name == "nil"
	case *ast.UnaryExpr:
		return isConstExpr(x.X)
	}
	return false
}
