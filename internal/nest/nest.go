// Package nest extends the framework to tight loop nests, the paper's §6
// "currently investigating" item: recurrences that arise with respect to
// multiple induction variables simultaneously, expressed as distance
// vectors (δ_outer, δ_inner).
//
// The motivating example is Figure 4's statement (3),
// Z[i+1, j] := Z[i, j−1]: its linearized subscripts differ by N+1, which is
// divisible neither by the i-stride N (symbolically) nor equal to a
// constant multiple of the j-stride 1 without involving N — so both
// single-loop analyses miss it, while the vector (1, 1) solves
// δi·N + δj·1 = N+1 exactly.
package nest

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/poly"
	"repro/internal/sema"
)

// Vector is an iteration distance vector over a two-level nest.
type Vector struct {
	Outer, Inner int64
}

// String renders "(o, i)".
func (v Vector) String() string { return fmt.Sprintf("(%d, %d)", v.Outer, v.Inner) }

// LexPositive reports whether the vector is lexicographically positive —
// the condition for a loop-carried recurrence.
func (v Vector) LexPositive() bool {
	return v.Outer > 0 || (v.Outer == 0 && v.Inner > 0)
}

// IsZero reports the all-zero vector (loop-independent).
func (v Vector) IsZero() bool { return v.Outer == 0 && v.Inner == 0 }

// Recurrence is a cross-iteration value relation inside a tight nest.
type Recurrence struct {
	Array    string
	From, To *ast.ArrayRef
	Vec      Vector
	// Kind is flow, anti or output by the def/use pattern of (From, To).
	Kind string
	// FoundBySingleLoop records whether the single-loop analyses (wrt the
	// inner or the outer induction variable alone, per paper §3.6) would
	// also discover this recurrence.
	FoundBySingleLoop bool
}

// String renders the recurrence.
func (r Recurrence) String() string {
	var b strings.Builder
	r.WriteTo(&b)
	return b.String()
}

// WriteTo appends String()'s rendering to b.
func (r Recurrence) WriteTo(b *strings.Builder) {
	var buf [20]byte
	b.WriteString(r.Kind)
	b.WriteByte(' ')
	ast.WriteExpr(b, r.From)
	b.WriteString(" -> ")
	ast.WriteExpr(b, r.To)
	b.WriteString(" vector (")
	b.Write(strconv.AppendInt(buf[:0], r.Vec.Outer, 10))
	b.WriteString(", ")
	b.Write(strconv.AppendInt(buf[:0], r.Vec.Inner, 10))
	b.WriteByte(')')
}

type refInfo struct {
	expr  *ast.ArrayRef
	isDef bool
	// aOuter, aInner, b: linearized subscript = aOuter·j + aInner·i + b.
	aOuter, aInner, b poly.Poly
}

// FindRecurrences analyzes a tight two-level nest: outer must contain
// exactly one statement, the inner loop. It returns every recurrence
// between subscripted references with a constant distance vector within
// the search bound (|δ| ≤ maxDist per component).
func FindRecurrences(outer *ast.DoLoop, maxDist int64) ([]Recurrence, error) {
	if maxDist <= 0 {
		maxDist = 8
	}
	inner, ok := tightInner(outer)
	if !ok {
		return nil, fmt.Errorf("nest: loop %s is not a tight two-level nest", outer.Var)
	}

	refs, err := collectRefs(inner.Body, outer.Var, inner.Var)
	if err != nil {
		return nil, err
	}

	var out []Recurrence
	for _, from := range refs {
		for _, to := range refs {
			if from.expr.Name != to.expr.Name {
				continue
			}
			if !from.isDef && !to.isDef {
				continue
			}
			if !from.aOuter.Equal(to.aOuter) || !from.aInner.Equal(to.aInner) {
				continue // different linear parts: no constant vector
			}
			db := from.b.Sub(to.b)
			vec, found := solveVector(from.aOuter, from.aInner, db, maxDist)
			if !found {
				continue
			}
			if !vec.LexPositive() {
				continue
			}
			r := Recurrence{
				Array: from.expr.Name,
				From:  from.expr, To: to.expr,
				Vec:  vec,
				Kind: kind(from.isDef, to.isDef),
			}
			r.FoundBySingleLoop = singleLoopFinds(from, to, outer.Var, inner.Var)
			out = append(out, r)
		}
	}
	return out, nil
}

func tightInner(outer *ast.DoLoop) (*ast.DoLoop, bool) {
	if len(outer.Body) != 1 {
		return nil, false
	}
	inner, ok := outer.Body[0].(*ast.DoLoop)
	return inner, ok
}

func collectRefs(body []ast.Stmt, outerIV, innerIV string) ([]refInfo, error) {
	var out []refInfo
	var err error
	add := func(expr *ast.ArrayRef, isDef bool) {
		lin, e := sema.Linearize(expr, sema.DefaultDims(expr.Name, len(expr.Subs)))
		if e != nil {
			return // non-affine references do not form constant vectors
		}
		aO, rest, ok1 := lin.CoeffOf(outerIV)
		if !ok1 {
			return
		}
		aI, b, ok2 := rest.CoeffOf(innerIV)
		if !ok2 {
			return
		}
		// The coefficient of the outer IV may itself mention the inner IV
		// (non-separable); skip those.
		for _, s := range aO.Symbols() {
			if s == innerIV {
				return
			}
		}
		out = append(out, refInfo{expr: expr, isDef: isDef, aOuter: aO, aInner: aI, b: b})
	}
	var walk func(stmts []ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ast.Assign:
				collectUses(st.RHS, func(r *ast.ArrayRef) { add(r, false) })
				if lhs, ok := st.LHS.(*ast.ArrayRef); ok {
					add(lhs, true)
				}
			case *ast.If:
				collectUses(st.Cond, func(r *ast.ArrayRef) { add(r, false) })
				walk(st.Then)
				walk(st.Else)
			case *ast.DoLoop:
				err = fmt.Errorf("nest: deeper nesting not supported")
			}
		}
	}
	walk(body)
	return out, err
}

func collectUses(e ast.Expr, f func(*ast.ArrayRef)) {
	ast.InspectExpr(e, func(n ast.Node) bool {
		if r, ok := n.(*ast.ArrayRef); ok {
			f(r)
			return false
		}
		return true
	})
}

// solveVector finds integer (δo, δi) with δo·aOuter + δi·aInner = db,
// |δ| ≤ maxDist, preferring the lexicographically smallest nonnegative
// solution. Polynomials keep symbolic strides exact: candidate δi values
// are scanned and the residue checked for exact divisibility by aOuter.
func solveVector(aOuter, aInner, db poly.Poly, maxDist int64) (Vector, bool) {
	var best Vector
	found := false
	better := func(v Vector) bool {
		if !found {
			return true
		}
		if v.Outer != best.Outer {
			return v.Outer < best.Outer
		}
		return v.Inner < best.Inner
	}
	for di := -maxDist; di <= maxDist; di++ {
		rem := db.Sub(aInner.MulConst(di))
		if rem.IsZero() {
			v := Vector{Outer: 0, Inner: di}
			if (v.LexPositive() || v.IsZero()) && better(v) {
				best, found = v, true
			}
			continue
		}
		q, ok := rem.DivExact(aOuter)
		if !ok {
			continue
		}
		do, isConst := q.IsConst()
		if !isConst || do < -maxDist || do > maxDist {
			continue
		}
		v := Vector{Outer: do, Inner: di}
		if (v.LexPositive() || v.IsZero()) && better(v) {
			best, found = v, true
		}
	}
	return best, found
}

// singleLoopFinds reports whether one of the two §3.6 single-loop analyses
// would discover the recurrence: the distance must be a constant multiple
// of one stride with the other induction variable matching symbolically.
func singleLoopFinds(from, to refInfo, outerIV, innerIV string) bool {
	db := from.b.Sub(to.b)
	// With respect to the inner loop (outer IV symbolic): the whole
	// subscript difference including the outer term must divide by aInner.
	dbWithOuter := db // b already excludes both IV terms; outer terms equal ⇒ cancel
	if q, ok := dbWithOuter.DivExact(from.aInner); ok {
		if _, isC := q.IsConst(); isC {
			return true
		}
	}
	if q, ok := dbWithOuter.DivExact(from.aOuter); ok {
		if _, isC := q.IsConst(); isC {
			return true
		}
	}
	_ = outerIV
	_ = innerIV
	return false
}

func kind(fromDef, toDef bool) string {
	switch {
	case fromDef && toDef:
		return "output"
	case fromDef:
		return "flow"
	default:
		return "anti"
	}
}
