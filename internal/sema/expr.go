package sema

import (
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/poly"
	"repro/internal/token"
)

// PolyToExpr converts a polynomial back into a source expression. Symbols
// become identifiers; the result is simplified (constant terms folded,
// ×1 elided). Stride symbols of the form "X#k" produced by DefaultDims are
// not convertible — callers that generate runtime code must use concrete
// dimension sizes instead; PolyToExpr reports them via ok=false.
func PolyToExpr(p poly.Poly) (ast.Expr, bool) {
	for _, s := range p.Symbols() {
		if strings.Contains(s, "#") {
			return nil, false
		}
	}
	terms := p.Monomials()
	var expr ast.Expr
	for _, t := range terms {
		mag := termExpr(abs64(t.Coeff), t.Symbols)
		switch {
		case expr == nil && t.Coeff < 0:
			expr = &ast.Unary{Op: token.MINUS, X: mag}
		case expr == nil:
			expr = mag
		case t.Coeff < 0:
			expr = &ast.Binary{Op: token.MINUS, L: expr, R: mag}
		default:
			expr = &ast.Binary{Op: token.PLUS, L: expr, R: mag}
		}
	}
	if expr == nil {
		expr = &ast.IntLit{Value: 0}
	}
	return Simplify(expr), true
}

// termExpr renders |c|·s1·s2·… as an expression.
func termExpr(c int64, syms []string) ast.Expr {
	if len(syms) == 0 {
		return &ast.IntLit{Value: c}
	}
	var prod ast.Expr
	for _, s := range syms {
		id := &ast.Ident{Name: s}
		if prod == nil {
			prod = id
		} else {
			prod = &ast.Binary{Op: token.STAR, L: prod, R: id}
		}
	}
	if c == 1 {
		return prod
	}
	return &ast.Binary{Op: token.STAR, L: &ast.IntLit{Value: c}, R: prod}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// AffineAtExpr builds the source expression for f(at) = A·at + B where at
// is itself an expression (used for pipeline initialization loads
// X[f(1−j)] and peeled iterations). ok=false when the form involves
// non-convertible stride symbols.
func AffineAtExpr(f AffineForm, at ast.Expr) (ast.Expr, bool) {
	aExpr, ok := PolyToExpr(f.A)
	if !ok {
		return nil, false
	}
	bExpr, ok := PolyToExpr(f.B)
	if !ok {
		return nil, false
	}
	prod := &ast.Binary{Op: token.STAR, L: aExpr, R: ast.CloneExpr(at)}
	sum := &ast.Binary{Op: token.PLUS, L: prod, R: bExpr}
	return Simplify(sum), true
}

// SortedSymbols exposes a polynomial's symbols sorted (diagnostics helper).
func SortedSymbols(p poly.Poly) []string {
	s := p.Symbols()
	sort.Strings(s)
	return s
}

// CanonicalizeSubscripts returns a deep copy of the program in which every
// polynomial array subscript is rewritten to its canonical affine form
// (e.g. "1 + (i-1)*3 + 2" becomes "3*i"). Loop normalization and unrolling
// substitute expressions into subscripts; canonicalization collapses the
// residue so downstream code generation emits a single multiply per
// subscript, which strength reduction can then remove entirely.
// Non-polynomial subscripts are left unchanged.
func CanonicalizeSubscripts(prog *ast.Program) *ast.Program {
	out := &ast.Program{Body: ast.CloneStmts(prog.Body), Syms: prog.Syms, Directives: prog.Directives}
	canonicalizeStmts(out.Body)
	return out
}

// canonicalizeStmts is CanonicalizeSubscripts in place, for trees the
// caller has just built and owns.
func canonicalizeStmts(body []ast.Stmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		ref, ok := n.(*ast.ArrayRef)
		if !ok {
			return true
		}
		for k, sub := range ref.Subs {
			if canonicalShape(sub) {
				// PolyToExpr would rebuild sub node for node; keep it and
				// clear what the rebuilt nodes would lack.
				clearLeafIdentity(sub)
				continue
			}
			p, err := ExprToPoly(sub)
			if err != nil {
				continue
			}
			if e, ok := PolyToExpr(p); ok {
				ref.Subs[k] = e
			}
		}
		return false // subscripts of subscripts were handled by ExprToPoly
	})
}

// canonicalShape reports that e already has the exact structure
// PolyToExpr(ExprToPoly(e)) builds: a literal, a variable v, c*v with
// c > 1, or one of the last two plus or minus a positive literal. These
// are the subscripts programs are written with. Only source positions and
// interned symbols differ from the rebuilt tree; clearLeafIdentity zeroes
// them. TestCanonicalShapeMatchesPolyToExpr pins the shapes.
func canonicalShape(e ast.Expr) bool {
	if _, ok := e.(*ast.IntLit); ok {
		return true
	}
	if b, ok := e.(*ast.Binary); ok && (b.Op == token.PLUS || b.Op == token.MINUS) {
		if c, ok := b.R.(*ast.IntLit); ok && c.Value > 0 {
			return linearTerm(b.L)
		}
	}
	return linearTerm(e)
}

// linearTerm matches v or c*v (c > 1) for a variable v PolyToExpr can
// render (no DefaultDims stride symbol).
func linearTerm(e ast.Expr) bool {
	if b, ok := e.(*ast.Binary); ok && b.Op == token.STAR {
		c, ok := b.L.(*ast.IntLit)
		if !ok || c.Value <= 1 {
			return false
		}
		e = b.R
	}
	id, ok := e.(*ast.Ident)
	return ok && !strings.Contains(id.Name, "#")
}

// clearLeafIdentity zeroes the positions and intern symbols of e's leaves,
// which PolyToExpr's freshly built nodes do not carry.
func clearLeafIdentity(e ast.Expr) {
	ast.InspectExpr(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			x.NamePos, x.Sym = token.Pos{}, 0
		case *ast.IntLit:
			x.LitPos = token.Pos{}
		}
		return true
	})
}
