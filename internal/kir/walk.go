package kir

// WalkExpr visits e and every sub-expression in preorder. fn returning
// false prunes the subtree.
func WalkExpr(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case Bin:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case Un:
		WalkExpr(x.X, fn)
	case Load:
		WalkExpr(x.Index, fn)
	case Call:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case Convert:
		WalkExpr(x.X, fn)
	case Bitcast:
		WalkExpr(x.X, fn)
	}
}

// ExprUses appends every variable e reads (including pointer bases of
// loads) to dst and returns it. Duplicates are preserved.
func ExprUses(dst []*Var, e Expr) []*Var {
	WalkExpr(e, func(x Expr) bool {
		switch n := x.(type) {
		case VarRef:
			dst = append(dst, n.V)
		case Load:
			dst = append(dst, n.Base)
		}
		return true
	})
	return dst
}

// ReadsVar reports whether e reads v.
func ReadsVar(e Expr, v *Var) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		switch n := x.(type) {
		case VarRef:
			if n.V == v {
				found = true
			}
		case Load:
			if n.Base == v {
				found = true
			}
		}
		return !found
	})
	return found
}

// WalkStmts visits every statement in b and in nested blocks, preorder.
// fn returning false prunes the nested blocks of that statement.
func WalkStmts(b Block, fn func(Stmt) bool) {
	for _, s := range b {
		if !fn(s) {
			continue
		}
		switch n := s.(type) {
		case *If:
			WalkStmts(n.Then, fn)
			WalkStmts(n.Else, fn)
		case *For:
			WalkStmts(n.Body, fn)
		case *While:
			WalkStmts(n.Body, fn)
		}
	}
}

// StmtExprs appends the expressions a statement evaluates directly (not
// nested blocks) to dst and returns it.
func StmtExprs(dst []Expr, s Stmt) []Expr {
	switch n := s.(type) {
	case Define:
		dst = append(dst, n.E)
	case Assign:
		dst = append(dst, n.E)
	case Store:
		dst = append(dst, n.Index, n.Val)
	case *If:
		dst = append(dst, n.Cond)
	case *For:
		dst = append(dst, n.Init, n.Limit, n.Step)
	case *While:
		dst = append(dst, n.Cond)
	case EqualCheck:
		dst = append(dst, n.Expected)
	}
	return dst
}

// StmtDef returns the variable a statement defines or assigns, or nil.
func StmtDef(s Stmt) *Var {
	switch n := s.(type) {
	case Define:
		return n.Dst
	case Assign:
		return n.Dst
	case *For:
		return n.Iter
	}
	return nil
}
