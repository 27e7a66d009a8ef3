package sema

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/token"
)

// RemovedIV describes one eliminated derived induction variable.
type RemovedIV struct {
	Name string
	// Step is the per-iteration increment.
	Step int64
}

// RemoveDerivedIVs eliminates non-basic induction variables from the loop
// at prog.Body[idx], the preprocessing step the paper assumes (§1: "we
// assume that prior to the analysis, non-basic induction variables have
// been identified and removed [1]").
//
// A derived induction variable is a scalar j updated exactly once per
// iteration, unconditionally, at the top level of a normalized loop body,
// by j := j + c or j := j − c with constant c. Every other in-loop
// occurrence of j is replaced by its closed form relative to the value of
// j on loop entry: occurrences before the update read j + c·(i−1),
// occurrences after it read j + c·i. The update statement is deleted and a
// final assignment j := j + c·UB is placed after the loop so code using j
// afterwards still sees the right value.
//
// Loops whose candidate updates are conditional, repeated, or nested are
// left unchanged (no error): the transformation is an enabling cleanup,
// not a requirement.
func RemoveDerivedIVs(prog *ast.Program, idx int) (*ast.Program, []RemovedIV, error) {
	loop, ok := prog.Body[idx].(*ast.DoLoop)
	if !ok {
		return nil, nil, fmt.Errorf("sema: statement %d is not a loop", idx)
	}
	if lo, isC := ConstValue(loop.Lo); !isC || lo != 1 {
		return nil, nil, fmt.Errorf("sema: derived-IV removal requires a normalized loop")
	}
	if loop.Step != nil {
		if s, isC := ConstValue(loop.Step); !isC || s != 1 {
			return nil, nil, fmt.Errorf("sema: derived-IV removal requires a normalized loop")
		}
	}

	// Find candidates: top-level updates j := j ± c.
	type cand struct {
		pos  int // index in loop.Body
		step int64
	}
	cands := map[string]cand{}
	invalid := map[string]bool{}
	for pos, s := range loop.Body {
		as, isAssign := s.(*ast.Assign)
		if !isAssign {
			// Scalar assignments inside branches/nested loops invalidate
			// their targets.
			ast.Inspect([]ast.Stmt{s}, func(n ast.Node) bool {
				if a, ok := n.(*ast.Assign); ok {
					if id, ok := a.LHS.(*ast.Ident); ok {
						invalid[id.Name] = true
					}
				}
				return true
			})
			continue
		}
		id, isScalar := as.LHS.(*ast.Ident)
		if !isScalar {
			continue
		}
		if step, ok := matchSelfIncrement(as, id.Name); ok {
			if _, dup := cands[id.Name]; dup {
				invalid[id.Name] = true
			} else {
				cands[id.Name] = cand{pos: pos, step: step}
			}
		} else {
			invalid[id.Name] = true
		}
	}
	for name := range invalid {
		delete(cands, name)
	}
	// The basic induction variable is never a candidate (sema.Check already
	// rejects assignments to it).
	delete(cands, loop.Var)
	if len(cands) == 0 {
		return prog, nil, nil
	}

	iv := &ast.Ident{Name: loop.Var}
	newBody := make([]ast.Stmt, 0, len(loop.Body))
	var removed []RemovedIV
	for pos, s := range loop.Body {
		skip := false
		for name, c := range cands {
			if c.pos == pos {
				removed = append(removed, RemovedIV{Name: name, Step: c.step})
				skip = true
			}
			_ = name
		}
		if skip {
			continue
		}
		st := ast.CloneStmt(s)
		for name, c := range cands {
			var at ast.Expr
			if pos < c.pos {
				// Before the update: j + c·(i−1).
				at = Simplify(&ast.Binary{Op: token.PLUS,
					L: &ast.Ident{Name: name},
					R: &ast.Binary{Op: token.STAR,
						L: &ast.IntLit{Value: c.step},
						R: &ast.Binary{Op: token.MINUS, L: ast.CloneExpr(iv), R: &ast.IntLit{Value: 1}}}})
			} else {
				// After the update: j + c·i.
				at = Simplify(&ast.Binary{Op: token.PLUS,
					L: &ast.Ident{Name: name},
					R: &ast.Binary{Op: token.STAR,
						L: &ast.IntLit{Value: c.step},
						R: ast.CloneExpr(iv)}})
			}
			st = substituteInStmt(st, name, at)
		}
		newBody = append(newBody, st)
	}

	newLoop := &ast.DoLoop{
		DoPos: loop.DoPos, Var: loop.Var, Label: loop.Label,
		Lo: ast.CloneExpr(loop.Lo), Hi: ast.CloneExpr(loop.Hi), Body: newBody,
	}

	out := &ast.Program{}
	for j, s := range prog.Body {
		if j == idx {
			out.Body = append(out.Body, newLoop)
			// Final values: j := j + c·UB (guarded against UB < 1 loops by
			// the max with 0 being unnecessary — a zero-trip loop would
			// need j unchanged; emit the guard when UB is symbolic).
			for _, r := range removed {
				finalExpr := Simplify(&ast.Binary{Op: token.PLUS,
					L: &ast.Ident{Name: r.Name},
					R: &ast.Binary{Op: token.STAR,
						L: &ast.IntLit{Value: r.Step},
						R: ast.CloneExpr(loop.Hi)}})
				assign := &ast.Assign{LHS: &ast.Ident{Name: r.Name}, RHS: finalExpr}
				if _, isC := ConstValue(loop.Hi); isC {
					out.Body = append(out.Body, assign)
				} else {
					guard := &ast.Binary{Op: token.GEQ, L: ast.CloneExpr(loop.Hi), R: &ast.IntLit{Value: 1}}
					out.Body = append(out.Body, &ast.If{Cond: guard, Then: []ast.Stmt{assign}})
				}
			}
		} else {
			out.Body = append(out.Body, ast.CloneStmt(s))
		}
	}
	// out was built fresh above, so it is canonicalized in place.
	canonicalizeStmts(out.Body)
	return out, removed, nil
}

// matchSelfIncrement recognizes j := j + c and j := j − c (and the
// commuted j := c + j) with constant c, returning the signed step.
func matchSelfIncrement(as *ast.Assign, name string) (int64, bool) {
	bin, ok := as.RHS.(*ast.Binary)
	if !ok {
		return 0, false
	}
	isSelf := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == name
	}
	switch bin.Op {
	case token.PLUS:
		if isSelf(bin.L) {
			if c, ok := ConstValue(bin.R); ok {
				return c, true
			}
		}
		if isSelf(bin.R) {
			if c, ok := ConstValue(bin.L); ok {
				return c, true
			}
		}
	case token.MINUS:
		if isSelf(bin.L) {
			if c, ok := ConstValue(bin.R); ok {
				return -c, true
			}
		}
	}
	return 0, false
}

// substituteInStmt replaces scalar uses of name (not assignments to it,
// which the caller has already excluded) in a cloned statement.
func substituteInStmt(s ast.Stmt, name string, repl ast.Expr) ast.Stmt {
	list := ast.SubstituteIdentStmts([]ast.Stmt{s}, name, repl)
	return list[0]
}
