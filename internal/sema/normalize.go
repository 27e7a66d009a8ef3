package sema

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/token"
)

// Normalize returns a copy of the program in which every DO loop runs from 1
// to an upper bound with step one, as the framework requires (paper §1:
// "all loops are normalized, i.e., the induction variable ranges from 1 to
// an upper bound UB with increment one").
//
// A loop  do i = lo, hi, s  (s a nonzero integer constant, s defaults to 1)
// becomes  do i = 1, (hi−lo)/s + 1  with every use of i in the body replaced
// by  lo + (i−1)·s. Loops already in normal form are returned unchanged
// (structurally copied). A loop whose step is not a nonzero integer constant
// is an error.
//
// The input is not modified. The copy is made once: normalizeBlock builds a
// fresh tree, and substitution and canonicalization rewrite that tree in
// place, so no node is shared with the input or between two places of the
// output.
func Normalize(prog *ast.Program) (*ast.Program, error) {
	body, err := normalizeBlock(prog.Body)
	if err != nil {
		return nil, err
	}
	// Substitution leaves residue like "1 + (i-1)*3 + 2" in subscripts;
	// canonicalization collapses it back to affine form ("3*i"). The intern
	// table and lint directives carry over: normalization rewrites
	// statements, not identities or comments.
	canonicalizeStmts(body)
	return &ast.Program{Body: body, Syms: prog.Syms, Directives: prog.Directives}, nil
}

func normalizeBlock(body []ast.Stmt) ([]ast.Stmt, error) {
	out := make([]ast.Stmt, 0, len(body))
	for _, s := range body {
		switch st := s.(type) {
		case *ast.DoLoop:
			n, err := normalizeLoop(st)
			if err != nil {
				return nil, err
			}
			out = append(out, n)
		case *ast.If:
			thenB, err := normalizeBlock(st.Then)
			if err != nil {
				return nil, err
			}
			var elseB []ast.Stmt
			if st.Else != nil {
				elseB, err = normalizeBlock(st.Else)
				if err != nil {
					return nil, err
				}
			}
			out = append(out, &ast.If{IfPos: st.IfPos, Cond: ast.CloneExpr(st.Cond), Then: thenB, Else: elseB})
		default:
			out = append(out, ast.CloneStmt(s))
		}
	}
	return out, nil
}

func normalizeLoop(st *ast.DoLoop) (*ast.DoLoop, error) {
	step := int64(1)
	if st.Step != nil {
		v, ok := constValue(st.Step)
		if !ok || v == 0 {
			return nil, &Error{Pos: st.Pos(), Msg: fmt.Sprintf(
				"loop step %q must be a nonzero integer constant", ast.ExprString(st.Step))}
		}
		step = v
	}

	body, err := normalizeBlock(st.Body)
	if err != nil {
		return nil, err
	}

	loIsOne := false
	if v, ok := constValue(st.Lo); ok && v == 1 {
		loIsOne = true
	}
	if loIsOne && step == 1 {
		return &ast.DoLoop{
			DoPos: st.DoPos, Var: st.Var, Label: st.Label,
			Lo: ast.CloneExpr(st.Lo), Hi: ast.CloneExpr(st.Hi), Body: body,
		}, nil
	}

	// UB = (hi − lo)/step + 1;  i ↦ lo + (i−1)·step.
	iv := &ast.Ident{Name: st.Var}
	ub := simplify(add(div(sub(ast.CloneExpr(st.Hi), ast.CloneExpr(st.Lo)), lit(step)), lit(1)))
	repl := simplify(add(ast.CloneExpr(st.Lo), mul(sub(iv, lit(1)), lit(step))))
	replaceIdentStmts(body, st.Var, repl)

	return &ast.DoLoop{
		DoPos: st.DoPos, Var: st.Var, Label: st.Label,
		Lo: lit(1), Hi: ub, Body: body,
	}, nil
}

// replaceIdentStmts is ast.SubstituteIdentStmts in place, for the fresh
// tree normalizeBlock builds: every scalar use of name becomes its own
// deep copy of repl, so no node is shared between two sites or with repl.
// Assignments to name and the bodies of inner loops that shadow it are
// left intact, as in ast.SubstituteIdentStmts.
func replaceIdentStmts(list []ast.Stmt, name string, repl ast.Expr) {
	for _, s := range list {
		switch st := s.(type) {
		case *ast.DoLoop:
			st.Lo = replaceIdent(st.Lo, name, repl)
			st.Hi = replaceIdent(st.Hi, name, repl)
			if st.Step != nil {
				st.Step = replaceIdent(st.Step, name, repl)
			}
			if st.Var != name {
				replaceIdentStmts(st.Body, name, repl)
			}
		case *ast.If:
			st.Cond = replaceIdent(st.Cond, name, repl)
			replaceIdentStmts(st.Then, name, repl)
			replaceIdentStmts(st.Else, name, repl)
		case *ast.Assign:
			st.LHS = replaceIdent(st.LHS, name, repl)
			st.RHS = replaceIdent(st.RHS, name, repl)
		}
	}
}

// replaceIdent rewrites e in place and returns it, or returns a copy of
// repl when e itself is the identifier.
func replaceIdent(e ast.Expr, name string, repl ast.Expr) ast.Expr {
	switch ex := e.(type) {
	case *ast.Ident:
		if ex.Name == name {
			return ast.CloneExpr(repl)
		}
	case *ast.ArrayRef:
		for i, s := range ex.Subs {
			ex.Subs[i] = replaceIdent(s, name, repl)
		}
	case *ast.Binary:
		ex.L = replaceIdent(ex.L, name, repl)
		ex.R = replaceIdent(ex.R, name, repl)
	case *ast.Unary:
		ex.X = replaceIdent(ex.X, name, repl)
	}
	return e
}

// constValue evaluates a constant integer expression.
func constValue(e ast.Expr) (int64, bool) {
	switch ex := e.(type) {
	case *ast.IntLit:
		return ex.Value, true
	case *ast.Unary:
		if ex.Op == token.MINUS {
			if v, ok := constValue(ex.X); ok {
				return -v, true
			}
		}
	case *ast.Binary:
		l, okL := constValue(ex.L)
		r, okR := constValue(ex.R)
		if !okL || !okR {
			return 0, false
		}
		switch ex.Op {
		case token.PLUS:
			return l + r, true
		case token.MINUS:
			return l - r, true
		case token.STAR:
			return l * r, true
		case token.SLASH:
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case token.MOD:
			if r == 0 {
				return 0, false
			}
			return l % r, true
		}
	}
	return 0, false
}

// --- tiny AST-building helpers with constant folding ---------------------

func lit(v int64) ast.Expr { return &ast.IntLit{Value: v} }

func add(l, r ast.Expr) ast.Expr { return &ast.Binary{Op: token.PLUS, L: l, R: r} }
func sub(l, r ast.Expr) ast.Expr { return &ast.Binary{Op: token.MINUS, L: l, R: r} }
func mul(l, r ast.Expr) ast.Expr { return &ast.Binary{Op: token.STAR, L: l, R: r} }
func div(l, r ast.Expr) ast.Expr { return &ast.Binary{Op: token.SLASH, L: l, R: r} }

// simplify performs local constant folding and algebraic identity cleanup
// (x+0, x−0, x·1, x·0, x/1, 0+x, 1·x).
func simplify(e ast.Expr) ast.Expr {
	b, ok := e.(*ast.Binary)
	if !ok {
		if u, isU := e.(*ast.Unary); isU {
			x := simplify(u.X)
			if v, isC := constValue(x); isC && u.Op == token.MINUS {
				return lit(-v)
			}
			return &ast.Unary{OpPos: u.OpPos, Op: u.Op, X: x}
		}
		return e
	}
	l := simplify(b.L)
	r := simplify(b.R)
	if v, ok := constValue(&ast.Binary{Op: b.Op, L: l, R: r}); ok {
		return lit(v)
	}
	lv, lc := constValue(l)
	rv, rc := constValue(r)
	switch b.Op {
	case token.PLUS:
		if lc && lv == 0 {
			return r
		}
		if rc && rv == 0 {
			return l
		}
	case token.MINUS:
		if rc && rv == 0 {
			return l
		}
	case token.STAR:
		if lc && lv == 1 {
			return r
		}
		if rc && rv == 1 {
			return l
		}
		if (lc && lv == 0) || (rc && rv == 0) {
			return lit(0)
		}
	case token.SLASH:
		if rc && rv == 1 {
			return l
		}
	}
	return &ast.Binary{Op: b.Op, L: l, R: r}
}

// Simplify exposes the local constant folder for other packages (the
// optimizers use it when synthesizing peeled iterations).
func Simplify(e ast.Expr) ast.Expr { return simplify(e) }

// ConstValue exposes constant evaluation of expressions.
func ConstValue(e ast.Expr) (int64, bool) { return constValue(e) }
