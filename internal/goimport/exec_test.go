package goimport

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/token"
)

// TestDifferentialKernels runs seeded differential execution over every
// unit lowered from the checked-in examples/go corpus: the mini program
// interpreted by internal/interp must compute the same final state as the
// original Go loop on identical random inputs. This is the acceptance
// gate that the lowering (bounds, +1 subscript shift, value bindings,
// negative steps) is semantics-preserving.
func TestDifferentialKernels(t *testing.T) {
	res, err := ImportTree("../../examples/go", false)
	if err != nil {
		t.Fatal(err)
	}
	units := res.Units()
	if len(units) < 10 {
		t.Fatalf("only %d units in the kernels corpus", len(units))
	}
	match := 0
	for i, u := range units {
		for _, seed := range []int64{1, 42} {
			d := Differential(u, seed+int64(i))
			switch d.Status {
			case DiffMatch:
				match++
			case DiffMismatch, DiffError:
				t.Errorf("%s:%d (%s) seed %d: %s: %s", u.File, u.Pos.Line, u.Func, seed+int64(i), d.Status, d.Detail)
			}
		}
	}
	if match < 10 {
		t.Errorf("only %d differential matches, want >= 10", match)
	}
}

// TestDifferentialDeterminism checks the same (unit, seed) pair always
// synthesizes the same inputs and reaches the same outcome.
func TestDifferentialDeterminism(t *testing.T) {
	res := importSrc(t, `package p
func F(a, b []int, n int) {
	for i := 1; i < n; i++ {
		a[i] = a[i-1] + b[i]
	}
}`)
	units := res.Units()
	if len(units) != 1 {
		t.Fatalf("got %d units", len(units))
	}
	first := Differential(units[0], 7)
	if first.Status != DiffMatch {
		t.Fatalf("differential: %s: %s", first.Status, first.Detail)
	}
	for run := 0; run < 5; run++ {
		if d := Differential(units[0], 7); d != first {
			t.Fatalf("run %d: %+v != %+v", run, d, first)
		}
	}
}

// TestDifferentialSkipsNarrowInts checks units over integer types with
// overflow semantics the mini interpreter does not model (int8, uint8, …)
// are skipped, not falsely matched or mismatched.
func TestDifferentialSkipsNarrowInts(t *testing.T) {
	res := importSrc(t, `package p
func F(a []int8, n int) {
	for i := 0; i < n; i++ {
		a[i] = a[i] + 1
	}
}`)
	units := res.Units()
	if len(units) != 1 {
		t.Fatalf("got %d units (int8 elements should lower; verdicts are width-independent)", len(units))
	}
	if d := Differential(units[0], 1); d.Status != DiffSkipped {
		t.Fatalf("differential over int8: %s, want skipped", d.Status)
	}
}

// TestDifferentialCoversForms spot-checks the trickiest lowering shapes
// one by one so a regression names the failing form directly.
func TestDifferentialCoversForms(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"downward", `package p
func F(a []int, n int) {
	for i := n - 1; i >= 0; i-- {
		a[i] = a[i] + i
	}
}`},
		{"strided", `package p
func F(a []int, n int) {
	for i := 0; i < n; i += 2 {
		a[i] = 2 * a[i]
	}
}`},
		{"range value binding", `package p
func F(a []int) int {
	s := 0
	for _, v := range a {
		s = s + v
	}
	return s
}`},
		{"nested 2d", `package p
func F(m *[5][5]int) {
	for i := 1; i < 5; i++ {
		for j := 1; j < 5; j++ {
			m[i][j] = m[i-1][j] + m[i][j-1]
		}
	}
}`},
		{"triangular", `package p
func F(m *[6][6]int) {
	for i := 0; i < 6; i++ {
		for j := 0; j <= i; j++ {
			m[i][j] = i + j
		}
	}
}`},
		{"len bound", `package p
func F(a, b []int) {
	for i := 0; i < len(a); i++ {
		a[i] = b[i] + 1
	}
}`},
		{"conditional", `package p
func F(a, b []int, n, t int) {
	for i := 0; i < n; i++ {
		if b[i] > t {
			a[i] = b[i]
		} else {
			a[i] = t
		}
	}
}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := importSrc(t, tc.src)
			units := res.Units()
			if len(units) != 1 {
				t.Fatalf("got %d units; findings: %v", len(units), res.Findings())
			}
			for seed := int64(1); seed <= 8; seed++ {
				if d := Differential(units[0], seed); d.Status != DiffMatch {
					t.Fatalf("seed %d: %s: %s", seed, d.Status, d.Detail)
				}
			}
		})
	}
}

// TestDifferentialMismatchDetail forces a lowering bug — the lowered store
// multiplies its value by (i < 8), zeroing the last four cells — and
// checks the detail names the first mismatching cell in subscript order
// (a[9], not the string-order a[10] or whichever cell a map visits first),
// identically on every run.
func TestDifferentialMismatchDetail(t *testing.T) {
	res := importSrc(t, `package p
func F(a *[12]int) {
	for i := 0; i < 12; i++ {
		a[i] = a[i] + i
	}
}`)
	units := res.Units()
	if len(units) != 1 {
		t.Fatalf("got %d units", len(units))
	}
	u := units[0]
	loop := u.Program.Body[len(u.Program.Body)-1].(*ast.DoLoop)
	store := loop.Body[0].(*ast.Assign)
	store.RHS = &ast.Binary{Op: token.STAR, L: store.RHS,
		R: &ast.Binary{Op: token.LT, L: &ast.Ident{Name: loop.Var}, R: &ast.IntLit{Value: 8}}}
	first := Differential(u, 3)
	if first.Status != DiffMismatch || !strings.HasPrefix(first.Detail, "array a[9]: ") {
		t.Fatalf("differential of a broken lowering: %s: %q, want a mismatch at a[9]", first.Status, first.Detail)
	}
	for run := 0; run < 20; run++ {
		if d := Differential(u, 3); d != first {
			t.Fatalf("run %d: %+v != %+v", run, d, first)
		}
	}
}
