package sema

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

// TestNormalizeCopiesOnce checks the contract of the one-copy Normalize:
// the input renders identically before and after, and no node of the
// output is shared with the input or between two places of the output,
// so later in-place rewrites of one site can never leak into another.
func TestNormalizeCopiesOnce(t *testing.T) {
	prog := parser.MustParse(`dim C[50, 40]
do i = 3, 90, 3
  A[i] := A[i - 3] + B[2 * i + 1] * i
  if i > 9 and A[i + i] > 0 then
    B[i] := A[i - 6]
  else
    B[i + 1] := -i
  endif
enddo
do i = 40, 1, -1
  do j = 2, 20, 2
    C[i, j] := C[i + 1, j - 2] + i * j
  enddo
enddo
do k = 1, n
  D[k + 1 - 1] := D[k] + k
enddo
`)
	if _, errs := CheckAll(prog); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	before := ast.ProgramString(prog)
	norm, err := Normalize(prog)
	if err != nil {
		t.Fatal(err)
	}
	if after := ast.ProgramString(prog); after != before {
		t.Fatalf("Normalize mutated its input:\n%s\nwant\n%s", after, before)
	}

	owner := map[ast.Node]string{}
	ast.Inspect(prog.Body, func(n ast.Node) bool {
		owner[n] = "input"
		return true
	})
	ast.Inspect(norm.Body, func(n ast.Node) bool {
		if where, seen := owner[n]; seen {
			t.Errorf("%T node %p (%s) is shared with the %s", n, n, nodeString(n), where)
		}
		owner[n] = "output"
		return true
	})
	if t.Failed() {
		t.Logf("normalized:\n%s", ast.ProgramString(norm))
	}
}

func nodeString(n ast.Node) string {
	if e, ok := n.(ast.Expr); ok {
		return ast.ExprString(e)
	}
	return ast.StmtString(n.(ast.Stmt), 0)
}

// TestCanonicalShapeMatchesPolyToExpr pins the canonicalization fast path:
// for every subscript canonicalShape accepts, the kept tree with its leaf
// positions and symbols cleared must equal PolyToExpr's rebuild exactly.
// Subscripts are drawn from a small random grammar over the shapes and
// their near misses (zero, unit and negative coefficients, swapped
// operands, constants first).
func TestCanonicalShapeMatchesPolyToExpr(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	atoms := []string{"i", "j", "n", "0", "1", "2", "7", "-3"}
	var gen func(depth int) string
	gen = func(depth int) string {
		if depth == 0 || rng.Intn(3) == 0 {
			return atoms[rng.Intn(len(atoms))]
		}
		op := []string{" + ", " - ", " * "}[rng.Intn(3)]
		return gen(depth-1) + op + gen(depth-1)
	}
	accepted := 0
	for trial := 0; trial < 3000; trial++ {
		src := "A[" + gen(2) + "] := 0"
		prog := parser.MustParse(src)
		sub := prog.Body[0].(*ast.Assign).LHS.(*ast.ArrayRef).Subs[0]
		if !canonicalShape(sub) {
			continue
		}
		accepted++
		p, err := ExprToPoly(sub)
		if err != nil {
			t.Fatalf("%s: accepted but not a polynomial: %v", src, err)
		}
		want, ok := PolyToExpr(p)
		if !ok {
			t.Fatalf("%s: accepted but PolyToExpr refuses it", src)
		}
		got := ast.CloneExpr(sub)
		clearLeafIdentity(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: fast path keeps %s (%#v), PolyToExpr builds %s (%#v)",
				src, ast.ExprString(got), got, ast.ExprString(want), want)
		}
	}
	if accepted < 100 {
		t.Fatalf("only %d accepted subscripts: the grammar no longer exercises the fast path", accepted)
	}
}
