package interp

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sema"
)

// FuzzInterp checks the dense interpreter against the map-based reference
// (reference_test.go) on every parsed and checked program: final scalars
// and arrays, Stats, error text and the hook event sequence must agree,
// with and without ShareInit, and a ShareInit run must leave its initial
// state untouched. The seed corpus is examples/*.loop plus shapes that
// stress box growth (far-apart, negative and multi-dimensional stores).
// Run with `go test -fuzz=FuzzInterp ./internal/interp`.
func FuzzInterp(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.loop"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example .loop seeds found (%v)", err)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	for _, s := range []string{
		"A(1000000000) := 1\nA(-1000000000) := 2\nx := A(1000000000) + A(-1000000000)",
		"do i = 1, 40\n  A[i*i - 20] := A[i - 1] + i\nenddo",
		"do i = 20, 1, -1\n  A[i] := A[i + 1] * 2 + 1\nenddo",
		"do j = 1, 6\n  do i = 1, 6\n    X[i - j, 2*j] := X[i, j] + i * j\n  enddo\nenddo\ny := X[2, 4]",
		"do i = 1, 10\n  if i % 3 == 0 then\n    A[i] := 0\n  else\n    A[i] := A[i] - i\n  endif\nenddo",
		"i := 7\ndo i = 1, 3\n  A[i] := B[A[i]] / (i - 2)\nenddo\nx := i",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		info, err := sema.Check(prog)
		if err != nil {
			return
		}
		compareWithReference(t, prog, info)
	})
}

// compareWithReference runs prog on both interpreters from one initial
// state and fails on any observable difference.
func compareWithReference(t *testing.T, prog *ast.Program, info *sema.Info) {
	t.Helper()
	init, refInit := NewState(), newRefState()
	for name := range info.Scalars {
		v := int64(len(name)%4 + 3)
		init.Scalars[name], refInit.Scalars[name] = v, v
	}
	for name, rank := range info.Arrays {
		lo, hi := make([]int64, rank), make([]int64, rank)
		for d := range lo {
			lo[d], hi[d] = -2, 6
		}
		seed := func(idx []int64) int64 {
			v := int64(len(name))
			for _, x := range idx {
				v = v*31 + x
			}
			return v % 7
		}
		init.FillBox(name, lo, hi, seed)
		forBox(lo, hi, func(idx []int64) { refInit.setArrayN(name, idx, seed(idx)) })
		far := make([]int64, rank)
		for d := range far {
			far[d] = 1 << 40
		}
		init.SetArrayN(name, far, 5)
		refInit.setArrayN(name, far, 5)
	}
	pristine := init.Clone()

	for _, share := range []bool{false, true} {
		var got, want []string
		opts := func(log *[]string) *Options {
			return &Options{
				MaxSteps:  20000,
				ShareInit: share,
				TraceRef: func(ref *ast.ArrayRef, isStore bool, idx []int64) {
					*log = append(*log, fmt.Sprintf("ref %p %v %v", ref, isStore, idx))
				},
				LoopIter: func(l *ast.DoLoop, i int64) { *log = append(*log, fmt.Sprintf("iter %p %d", l, i)) },
				LoopDone: func(l *ast.DoLoop) { *log = append(*log, fmt.Sprintf("done %p", l)) },
				LoopOrder: func(l *ast.DoLoop, iters []int64) []int64 {
					*log = append(*log, fmt.Sprintf("order %p %v", l, iters))
					if l.Label%2 == 0 {
						return nil
					}
					out := make([]int64, len(iters))
					for i, v := range iters {
						out[len(iters)-1-i] = v
					}
					return out
				},
			}
		}
		st, stats, err := Run(prog, init, opts(&got))
		rst, rstats, rerr := refRun(prog, refInit, opts(&want))

		if fmt.Sprint(err) != fmt.Sprint(rerr) {
			t.Fatalf("share=%v: error %v, reference %v", share, err, rerr)
		}
		if !reflect.DeepEqual(st.Scalars, rst.Scalars) {
			t.Fatalf("share=%v: scalars %v, reference %v", share, st.Scalars, rst.Scalars)
		}
		if got, want := cellsOf(st), refCellsOf(rst); !reflect.DeepEqual(got, want) {
			t.Fatalf("share=%v: arrays %v, reference %v", share, got, want)
		}
		if !reflect.DeepEqual(stats, rstats) {
			t.Fatalf("share=%v: stats %+v, reference %+v", share, stats, rstats)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("share=%v: hook events differ:\n%s\nreference:\n%s",
				share, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if d, rd := DiffArrays(init, st), refDiffArrays(refInit, rst); d != rd {
			t.Fatalf("share=%v: DiffArrays %q, reference %q", share, d, rd)
		}
		if ArraysEqual(init, st) != (refDiffArrays(refInit, rst) == "") {
			t.Fatalf("share=%v: ArraysEqual disagrees with the reference diff", share)
		}
		if d := DiffArrays(init, pristine); d != "" {
			t.Fatalf("share=%v: the run mutated its initial state: %s", share, d)
		}
	}
}

// forBox calls f for every tuple of the box lo..hi in row-major order.
func forBox(lo, hi []int64, f func(idx []int64)) {
	idx := append([]int64(nil), lo...)
	for {
		f(idx)
		d := len(idx) - 1
		for ; d >= 0; d-- {
			if idx[d]++; idx[d] <= hi[d] {
				break
			}
			idx[d] = lo[d]
		}
		if d < 0 {
			return
		}
	}
}

// cellsOf renders a state's nonzero elements as name → key → value.
func cellsOf(st *State) map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for name := range st.arrays {
		st.Cells(name, func(idx []int64, v int64) {
			if out[name] == nil {
				out[name] = map[string]int64{}
			}
			out[name][elemKey(idx)] = v
		})
	}
	return out
}

func refCellsOf(st *refState) map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for name, cells := range st.Arrays {
		for k, v := range cells {
			if v == 0 {
				continue
			}
			if out[name] == nil {
				out[name] = map[string]int64{}
			}
			out[name][k] = v
		}
	}
	return out
}

// TestFarApartStoresStayBounded stores to subscripts two billion apart in
// one and two dimensions: the box must not grow across the gap, so the
// run allocates a few kilobytes, not gigabytes, and every element still
// reads back.
func TestFarApartStoresStayBounded(t *testing.T) {
	prog := parser.MustParse(`A(1000000000) := 1
A(-1000000000) := 2
B(1000000000, 1) := 3
B(1, -1000000000) := 4
do i = 1, 8
  A(i) := i
enddo
x := A(1000000000) + A(-1000000000) + B(1000000000, 1) + B(1, -1000000000) + A(8)
`)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, _, err := Run(prog, nil, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scalars["x"] != 1+2+3+4+8 {
		t.Fatalf("x = %d, want 18", st.Scalars["x"])
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("far-apart stores allocated %d bytes, want < 1 MiB", alloc)
	}
	if got := cellsOf(st); len(got["A"]) != 10 || len(got["B"]) != 2 {
		t.Fatalf("cells = %v, want 10 of A and 2 of B", got)
	}
}

// TestStridedStoresGrowGeometrically stores 1e5 elements at strides 5
// and 7, in one and two dimensions. Such stores leave the box too sparse
// to double at once, so they go to the overflow until enough elements
// justify a doubling; a box grown by one stride at a time would be copied
// whole on every store, some 1e10 cell copies per loop.
func TestStridedStoresGrowGeometrically(t *testing.T) {
	for _, ref := range []string{"A(5*i)", "A(7*i)", "B(2, 5*i)", "B(7*i, 3)"} {
		prog := parser.MustParse(fmt.Sprintf("do i = 1, 100000\n  %s := i\nenddo\n", ref))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		st, _, err := Run(prog, nil, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<20 {
			t.Errorf("%s: 1e5 strided stores allocated %d bytes, want < 64 MiB", ref, alloc)
		}
		n := 0
		st.Cells(ref[:1], func([]int64, int64) { n++ })
		if n != 100000 {
			t.Errorf("%s: %d elements, want 100000", ref, n)
		}
	}
}

// TestArrayMatchesMap drives one array through random stores — near the
// box, far from it, negative, zero values that erase elements, and
// subscript tuples of another rank — and checks every read, the element
// set and equality against a plain map after each store.
func TestArrayMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pick := func() []int64 {
		rank := 2
		if rng.Intn(10) == 0 {
			rank = 1 + 2*rng.Intn(2) // rank 1 or 3: the overflow's other ranks
		}
		idx := make([]int64, rank)
		for d := range idx {
			switch rng.Intn(8) {
			case 0:
				idx[d] = rng.Int63n(1<<40) - 1<<39
			case 1:
				idx[d] = rng.Int63n(200) - 100
			default:
				idx[d] = rng.Int63n(12) - 3
			}
		}
		return idx
	}
	for round := 0; round < 20; round++ {
		st, want := NewState(), map[string]int64{}
		for op := 0; op < 400; op++ {
			idx := pick()
			v := rng.Int63n(5)
			st.SetArrayN("A", idx, v)
			if v == 0 {
				delete(want, elemKey(idx))
			} else {
				want[elemKey(idx)] = v
			}
			probe := pick()
			if got := st.GetArrayN("A", probe); got != want[elemKey(probe)] {
				t.Fatalf("round %d op %d: A%v = %d, want %d", round, op, probe, got, want[elemKey(probe)])
			}
		}
		for k, v := range want {
			if got := st.GetArrayN("A", parseElemKey(k, nil)); got != v {
				t.Fatalf("round %d: A[%s] = %d, want %d", round, k, got, v)
			}
		}
		if got := cellsOf(st)["A"]; !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("round %d: cells differ from the map", round)
		}
		// The same elements stored in another order build another box;
		// the states must still compare equal, and unequal after a change.
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(keys)))
		other := NewState()
		for _, k := range keys {
			other.SetArrayN("A", parseElemKey(k, nil), want[k])
		}
		if !ArraysEqual(st, other) || !ArraysEqual(other, st) {
			t.Fatalf("round %d: equal element sets compare unequal: %s", round, DiffArrays(st, other))
		}
		other.SetArrayN("A", []int64{5, 5}, want["5,5"]+1)
		if ArraysEqual(st, other) || DiffArrays(st, other) == "" {
			t.Fatalf("round %d: a changed element compares equal", round)
		}
		// Clones share the box shape; an overflow element changed in one
		// must still tell them apart.
		far := []int64{1 << 41, 1 << 41, 1 << 41}
		x, y := st.Clone(), st.Clone()
		x.SetArrayN("A", far, 1)
		y.SetArrayN("A", far, 2)
		if ArraysEqual(x, y) {
			t.Fatalf("round %d: states differing in one overflow element compare equal", round)
		}
	}
}

// TestBoxMigratesOverflow stores an element too far from a small box for
// the box to reach, then enough elements that the box may grow across it:
// the element must move from the overflow into the box, keeping one copy
// and its value.
func TestBoxMigratesOverflow(t *testing.T) {
	st := NewState()
	st.SetArray("A", 0, 1)
	st.SetArray("A", 5000, 7)
	if a := st.arrays["A"]; len(a.over) != 1 {
		t.Fatalf("A[5000] next to a one-element box: overflow holds %d elements, want 1", len(a.over))
	}
	for i := int64(1); i <= 1000; i++ {
		st.SetArray("A", i, i)
	}
	st.SetArray("A", 6000, 9)
	if a := st.arrays["A"]; len(a.over) != 0 || a.offset([]int64{5000}) < 0 {
		t.Fatalf("box grown across A[5000] left %d overflow elements", len(a.over))
	}
	if got := numCells(st, "A"); got != 1003 {
		t.Fatalf("A holds %d nonzero elements, want 1003", got)
	}
	if a, b := st.GetArray("A", 5000), st.GetArray("A", 6000); a != 7 || b != 9 {
		t.Fatalf("A[5000], A[6000] = %d, %d, want 7, 9", a, b)
	}
	// The same elements stored high to low land in one box.
	other := NewState()
	for _, i := range []int64{6000, 5000} {
		other.SetArray("A", i, st.GetArray("A", i))
	}
	for i := int64(1000); i >= 0; i-- {
		other.SetArray("A", i, st.GetArray("A", i))
	}
	if d := DiffArrays(st, other); d != "" || !ArraysEqual(other, st) {
		t.Fatalf("equal element sets compare unequal: %s", d)
	}
}
