package interp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/parser"
)

func TestSimpleAssignments(t *testing.T) {
	prog := parser.MustParse("a := 2 + 3 * 4\nb := a - 1")
	st, _, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["a"] != 14 || st.Scalars["b"] != 13 {
		t.Fatalf("a=%d b=%d", st.Scalars["a"], st.Scalars["b"])
	}
}

func TestLoopSum(t *testing.T) {
	prog := parser.MustParse(`
s := 0
do i = 1, 10
  s := s + i
enddo
`)
	st, stats, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["s"] != 55 {
		t.Fatalf("s = %d, want 55", st.Scalars["s"])
	}
	if stats.Iterations != 10 {
		t.Errorf("iterations = %d, want 10", stats.Iterations)
	}
}

func TestArrayReadWrite(t *testing.T) {
	prog := parser.MustParse(`
do i = 1, 5
  A[i] := i * i
enddo
x := A[3]
`)
	st, stats, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["x"] != 9 {
		t.Fatalf("x = %d, want 9", st.Scalars["x"])
	}
	if st.GetArray("A", 5) != 25 {
		t.Fatalf("A[5] = %d, want 25", st.GetArray("A", 5))
	}
	if stats.ArrayStores["A"] != 5 || stats.ArrayLoads["A"] != 1 {
		t.Errorf("stores=%d loads=%d, want 5/1", stats.ArrayStores["A"], stats.ArrayLoads["A"])
	}
}

func TestFig5Semantics(t *testing.T) {
	// A[i+2] := A[i] + X with A[1]=A[2]=1, X=0 produces a shifted Fibonacci
	// flavor: every element copies its grandparent.
	prog := parser.MustParse(`
do i = 1, 10
  A[i+2] := A[i] + X
enddo
`)
	init := NewState()
	init.SetArray("A", 1, 7)
	init.SetArray("A", 2, 9)
	init.Scalars["X"] = 1
	st, stats, err := Run(prog, init, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A[3] = A[1]+1 = 8; A[5] = A[3]+1 = 9; A[7] = 10 …
	if got := st.GetArray("A", 7); got != 10 {
		t.Fatalf("A[7] = %d, want 10", got)
	}
	if got := st.GetArray("A", 12); got != 9+5 {
		t.Fatalf("A[12] = %d, want 14", got)
	}
	if stats.ArrayLoads["A"] != 10 || stats.ArrayStores["A"] != 10 {
		t.Errorf("loads/stores = %d/%d, want 10/10", stats.ArrayLoads["A"], stats.ArrayStores["A"])
	}
}

func TestConditional(t *testing.T) {
	prog := parser.MustParse(`
do i = 1, 10
  if i % 2 == 0 then
    A[i] := 1
  else
    A[i] := 2
  endif
enddo
`)
	st, _, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.GetArray("A", 4) != 1 || st.GetArray("A", 7) != 2 {
		t.Fatalf("A[4]=%d A[7]=%d", st.GetArray("A", 4), st.GetArray("A", 7))
	}
}

func TestMultiDim(t *testing.T) {
	prog := parser.MustParse(`
do j = 1, 3
  do i = 1, 3
    X[i, j] := i * 10 + j
  enddo
enddo
y := X[2, 3]
`)
	st, _, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["y"] != 23 {
		t.Fatalf("y = %d, want 23", st.Scalars["y"])
	}
}

func TestIVScopedToLoop(t *testing.T) {
	prog := parser.MustParse(`
i := 99
do i = 1, 5
  A[i] := i
enddo
x := i
`)
	st, _, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["x"] != 99 {
		t.Fatalf("induction variable leaked: x = %d, want 99", st.Scalars["x"])
	}
}

func TestNegativeStepLoop(t *testing.T) {
	prog := parser.MustParse(`
do i = 5, 1, -1
  A[i] := 6 - i
enddo
`)
	st, _, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.GetArray("A", 5) != 1 || st.GetArray("A", 1) != 5 {
		t.Fatal("negative step wrong")
	}
}

func TestZeroTripLoop(t *testing.T) {
	prog := parser.MustParse("do i = 5, 4\n A[i] := 1\nenddo")
	st, stats, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Arrays["A"]) != 0 || stats.Iterations != 0 {
		t.Fatal("zero-trip loop executed")
	}
}

func TestShortCircuit(t *testing.T) {
	// The right operand of `and` must not evaluate when the left is false:
	// otherwise the division would trap.
	prog := parser.MustParse(`
z := 0
if z != 0 and 10 / z > 1 then
  a := 1
endif
a := a + 2
`)
	st, _, err := Run(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["a"] != 2 {
		t.Fatalf("a = %d, want 2", st.Scalars["a"])
	}
}

func TestDivisionByZeroError(t *testing.T) {
	prog := parser.MustParse("a := 1 / z")
	if _, _, err := Run(prog, nil, nil); err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

func TestStepLimit(t *testing.T) {
	prog := parser.MustParse("do i = 1, 1000000\n A[1] := i\nenddo")
	_, _, err := Run(prog, nil, &Options{MaxSteps: 1000})
	if err == nil {
		t.Fatal("expected step limit error")
	}
}

func TestDiffArrays(t *testing.T) {
	a, b := NewState(), NewState()
	a.SetArray("A", 1, 5)
	b.SetArray("A", 1, 5)
	if !ArraysEqual(a, b) {
		t.Fatal("equal states reported different")
	}
	b.SetArray("A", 2, 1)
	if ArraysEqual(a, b) {
		t.Fatal("different states reported equal")
	}
	// Zero-valued entries count as absent.
	c, d := NewState(), NewState()
	c.SetArray("A", 3, 0)
	if !ArraysEqual(c, d) {
		t.Fatal("explicit zero must equal missing")
	}
}

// TestElemKeyMatchesFmtEncoding pins the element-key encoding to the
// fmt rendering it replaced: cell keys are compared across packages
// (witness cells, seeded states), so a single differing byte would
// silently break replay.
func TestElemKeyMatchesFmtEncoding(t *testing.T) {
	fmtKey := func(subs []int64) string {
		parts := make([]string, len(subs))
		for i, s := range subs {
			parts[i] = fmt.Sprintf("%d", s)
		}
		return strings.Join(parts, ",")
	}
	for _, subs := range [][]int64{
		nil,
		{0},
		{-1},
		{7},
		{math.MinInt64},
		{math.MaxInt64},
		{-4, 0, 12},
		{math.MinInt64, -1, 0, math.MaxInt64},
		{1, 2, 3, 4, 5, 6, 7, 8},
	} {
		if got, want := elemKey(subs), fmtKey(subs); got != want {
			t.Errorf("elemKey(%v) = %q, want %q", subs, got, want)
		}
		st := NewState()
		st.SetArrayN("A", subs, 42)
		if _, ok := st.Arrays["A"][fmtKey(subs)]; !ok || st.GetArrayN("A", subs) != 42 {
			t.Errorf("SetArrayN/GetArrayN(%v) do not round-trip through key %q", subs, fmtKey(subs))
		}
	}
}

// TestDiffArraysMissingIsZero checks the equality fast path in both
// directions — an explicit zero, a missing cell, and a missing array all
// read as zero — and that differing states still render the sorted diff
// text, truncated after eight entries.
func TestDiffArraysMissingIsZero(t *testing.T) {
	zeros, empty := NewState(), NewState()
	zeros.SetArray("A", 3, 0)
	zeros.SetArrayN("B", []int64{1, -2}, 0)
	empty.Arrays["A"] = map[string]int64{}
	for _, pair := range [][2]*State{{zeros, empty}, {empty, zeros}} {
		if d := DiffArrays(pair[0], pair[1]); d != "" {
			t.Errorf("zero vs missing reported different: %q", d)
		}
	}

	a, b := NewState(), NewState()
	a.SetArray("B", 2, 7)
	a.SetArray("A", 10, 1)
	b.SetArray("A", 9, 4)
	b.SetArrayN("C", []int64{-1, 0}, 0)
	if got, want := DiffArrays(a, b), "A[10]: 1 vs 0; A[9]: 0 vs 4; B[2]: 7 vs 0"; got != want {
		t.Errorf("DiffArrays(a, b) = %q, want %q", got, want)
	}
	if got, want := DiffArrays(b, a), "A[10]: 0 vs 1; A[9]: 4 vs 0; B[2]: 0 vs 7"; got != want {
		t.Errorf("DiffArrays(b, a) = %q, want %q", got, want)
	}

	c, d := NewState(), NewState()
	for i := int64(1); i <= 9; i++ {
		c.SetArray("A", i, i)
	}
	want := "A[1]: 1 vs 0; A[2]: 2 vs 0; A[3]: 3 vs 0; A[4]: 4 vs 0; A[5]: 5 vs 0; A[6]: 6 vs 0; A[7]: 7 vs 0; A[8]: 8 vs 0; ..."
	if got := DiffArrays(c, d); got != want {
		t.Errorf("truncated diff = %q, want %q", got, want)
	}
}

// TestShareInitCopiesOnStore runs twice from one shared initial state: a
// ShareInit run must leave init untouched however much it stores, and must
// compute the same final state as a run on a private copy.
func TestShareInitCopiesOnStore(t *testing.T) {
	prog := parser.MustParse("do i = 1, 4\n  A[i] := B[i] + A[i+1]\nenddo")
	init := NewState()
	for i := int64(1); i <= 5; i++ {
		init.SetArray("A", i, 10*i)
		init.SetArray("B", i, i)
	}
	pristine := init.Clone()
	want, _, err := Run(prog, init, nil)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 2; run++ {
		got, _, err := Run(prog, init, &Options{ShareInit: true})
		if err != nil {
			t.Fatal(err)
		}
		if d := DiffArrays(got, want); d != "" {
			t.Fatalf("run %d: shared-init result differs from a private copy: %s", run, d)
		}
		if d := DiffArrays(init, pristine); d != "" || len(init.Arrays["A"]) != 5 {
			t.Fatalf("run %d: shared-init run mutated init: %s", run, d)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	a := NewState()
	a.SetArray("A", 1, 5)
	a.Scalars["x"] = 1
	b := a.Clone()
	b.SetArray("A", 1, 9)
	b.Scalars["x"] = 2
	if a.GetArray("A", 1) != 5 || a.Scalars["x"] != 1 {
		t.Fatal("clone not isolated")
	}
}
