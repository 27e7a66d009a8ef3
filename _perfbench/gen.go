package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Input is one generated request body together with the shape counts the
// workload-shape report prints.
type Input struct {
	// Name is the display name findings and reports cite.
	Name string
	// Go marks Go source (fed through goimport.VetSource); otherwise the
	// source is mini-language text.
	Go  bool
	Src string
	// Loops and Stmts count the generated loops and assignments.
	Loops, Stmts int
}

// class is the parallelism class a loop template is built to have. The
// interpreter oracle, not this label, decides what a verdict must be; the
// label only steers the mix so every verdict class occurs.
type class int

const (
	parallel class = iota
	racy
	unknown
)

// gen draws loop bodies from a seeded source. Every loop of a program gets
// its own array names, so no two bodies are identical and driver.Analyze's
// memo cache cannot collapse them.
type gen struct {
	rng  *rand.Rand
	loop int // loops emitted so far; numbers the array names
	prog int // programs rendered so far; sets where rotations start
}

func newGen(seed int64) *gen { return &gen{rng: rand.New(rand.NewSource(seed))} }

// trips are the bounds loops draw from: a few constant trip counts and
// "n", a free scalar standing for a symbolic bound.
var trips = []string{"8", "16", "24", "32", "n"}

// rotation hands out 0..n−1 in turn, so a program's mix of classes,
// templates and bounds is fixed by its loop count and its place in the
// pool, and only the details (offsets, constants, statement order) vary
// with the seed. Programs of one size then differ from each other, which
// spreads their costs, but a pool's programs of one size cost the same
// from seed to seed, so the latency percentile that falls among them
// does too. g.rotation starts at the program's number.
type rotation struct{ next, n int }

func (g *gen) rotation(n int) *rotation { return &rotation{next: g.prog % n, n: n} }

func (r *rotation) take() int {
	v := r.next
	r.next = (r.next + 1) % r.n
	return v
}

// core returns the statement(s) that decide a flat loop's class, by
// template 0..2. k names the loop's arrays; every template uses two of
// them, so loops of every class cost the interpreter about the same per
// iteration.
func (g *gen) core(c class, template, k int) []string {
	switch c {
	case parallel:
		switch template {
		case 0:
			return []string{fmt.Sprintf("A%d[i] := B%d[i + %d] + B%d[i]", k, k, g.rng.Intn(4), k)}
		case 1:
			return []string{fmt.Sprintf("A%d[i] := A%d[i] * 2 + B%d[i]", k, k, k)}
		default:
			return []string{fmt.Sprintf("A%d[2 * i] := A%d[2 * i + 1] + B%d[i]", k, k, k)}
		}
	case racy:
		d := 1 + g.rng.Intn(3)
		switch template {
		case 0:
			return []string{fmt.Sprintf("A%d[i + %d] := A%d[i] + B%d[i]", k, d, k, k)}
		case 1:
			return []string{fmt.Sprintf("A%d[i] := A%d[i + %d] + B%d[i]", k, k, d, k)}
		default:
			return []string{fmt.Sprintf("S%d[%d] := B%d[i] + S%d[%d]", k, d, k, k, d)}
		}
	default:
		switch template {
		case 0:
			return []string{fmt.Sprintf("A%d[i * i] := B%d[i]", k, k)}
		case 1:
			return []string{fmt.Sprintf("s%d := s%d + B%d[i]", k, k, k), fmt.Sprintf("A%d[i] := s%d", k, k)}
		default:
			return []string{fmt.Sprintf("A%d[i] := A%d[i + k] + B%d[i]", k, k, k)}
		}
	}
}

// filler returns an assignment that adds no cross-iteration conflict: it
// stores to an array nothing else touches and reads a read-only one.
func (g *gen) filler(k int) string {
	return fmt.Sprintf("F%d[i] := G%d[i + %d] * %d + G%d[i]", k, k, g.rng.Intn(4), 2+g.rng.Intn(7), k)
}

// flatLoop renders one top-level loop of class c: its core statement(s)
// and one filler.
func (g *gen) flatLoop(b *strings.Builder, c class, template int, trip string) int {
	k := g.loop
	g.loop++
	fmt.Fprintf(b, "do i = 1, %s\n", trip)
	stmts := append(g.core(c, template, k), g.filler(k))
	g.rng.Shuffle(len(stmts), func(i, j int) { stmts[i], stmts[j] = stmts[j], stmts[i] })
	for _, s := range stmts {
		fmt.Fprintf(b, "  %s\n", s)
	}
	b.WriteString("enddo\n")
	return len(stmts)
}

// nest renders a two-level nest over a declared two-dimensional array. By
// variant, the carried offset sits on the inner dimension (0), the outer
// one (1), or neither (2).
func (g *gen) nest(b *strings.Builder, variant int, inner, outer string) int {
	k := g.loop
	g.loop += 2
	var di, dj int
	switch variant {
	case 0:
		di = 1 + g.rng.Intn(2)
	case 1:
		dj = 1 + g.rng.Intn(2)
	}
	fmt.Fprintf(b, "dim X%d[40, 40]\n", k)
	fmt.Fprintf(b, "do j = 1, %s\n  do i = 1, %s\n", outer, inner)
	fmt.Fprintf(b, "    X%d[i + %d, j + %d] := X%d[i, j] + Y%d[i, j]\n", k, di, dj, k, k)
	fmt.Fprintf(b, "    Z%d[i, j] := Y%d[i, j] * 3\n", k, k)
	b.WriteString("  enddo\nenddo\n")
	return 2
}

// vetProgram renders a mini-language program of the given loop count for
// the vet workloads: one two-level nest per six loops, and flat loops
// whose classes, templates and bounds rotate, so all three verdicts occur
// in every program of three or more loops. The class and nest-variant
// rotations start at fixed points, so the verdict mix, which sets how
// often the interpreter runs, depends on the loop count only.
func (g *gen) vetProgram(loops int) (src string, nstmts int) {
	defer func() { g.prog++ }()
	nests := loops / 6
	classes, bounds := &rotation{next: int(unknown), n: 3}, g.rotation(len(trips))
	templates := [3]*rotation{g.rotation(3), g.rotation(3), g.rotation(3)}
	var parts []string
	for n := 0; n < nests; n++ {
		var b strings.Builder
		if g.rng.Intn(2) == 0 {
			nstmts += g.nest(&b, n%3, "8", "16")
		} else {
			nstmts += g.nest(&b, n%3, "16", "8")
		}
		parts = append(parts, b.String())
	}
	for n := 0; n < loops-2*nests; n++ {
		var b strings.Builder
		c := classes.take()
		nstmts += g.flatLoop(&b, class(c), templates[c].take(), trips[bounds.take()])
		parts = append(parts, b.String())
	}
	g.rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return strings.Join(parts, ""), nstmts
}

// goProgram renders a Go file of top-level functions, one loop each, in
// the canonical shapes the Go front end lowers.
func (g *gen) goProgram(loops int) (src string, nstmts int) {
	defer func() { g.prog++ }()
	var b strings.Builder
	b.WriteString("package gen\n")
	classes, bounds, extras, racyTemplates := &rotation{next: int(unknown), n: 3}, g.rotation(len(trips)), g.rotation(2), g.rotation(2)
	for f := 0; f < loops; f++ {
		k := g.loop
		g.loop++
		bound := trips[bounds.take()]
		d := 1 + g.rng.Intn(3)
		var body []string
		ret := ""
		switch class(classes.take()) {
		case parallel:
			body = []string{fmt.Sprintf("a[i] = a[i]*2 + b[i+%d]", g.rng.Intn(3))}
		case racy:
			if racyTemplates.take() == 0 {
				body = []string{fmt.Sprintf("a[i+%d] = a[i] + b[i]", d)}
			} else {
				body = []string{fmt.Sprintf("a[i] = a[i+%d] + b[i]", d)}
			}
		default:
			body = []string{"s += a[i] * b[i]"}
			ret = "s"
		}
		if extras.take() == 0 {
			body = append(body, fmt.Sprintf("c[i] = b[i]*%d + 1", 2+g.rng.Intn(5)))
		}
		if ret != "" {
			fmt.Fprintf(&b, "\nfunc K%d(a, b, c []int, n int) int {\n\ts := 0\n", k)
		} else {
			fmt.Fprintf(&b, "\nfunc K%d(a, b, c []int, n int) {\n", k)
		}
		fmt.Fprintf(&b, "\tfor i := 0; i < %s; i++ {\n", bound)
		for _, s := range body {
			fmt.Fprintf(&b, "\t\t%s\n", s)
		}
		b.WriteString("\t}\n")
		if ret != "" {
			fmt.Fprintf(&b, "\treturn %s\n", ret)
		}
		b.WriteString("}\n")
		nstmts += len(body)
	}
	return b.String(), nstmts
}

// sizeMix returns every loop count from lo to hi once, followed by the
// given number of extra programs of each common size. A program's loop
// count sets most of its cost, so a large group of one size holds a
// latency percentile inside that group: the percentile then reads the
// typical cost of like programs instead of one program that changes with
// the seed.
func sizeMix(lo, hi int, common ...[2]int) []int {
	var out []int
	for n := lo; n <= hi; n++ {
		out = append(out, n)
	}
	for _, c := range common {
		for i := 0; i < c[1]; i++ {
			out = append(out, c[0])
		}
	}
	return out
}

// vetColdInputs is the vet-cold pool, in a seeded order: one Go file of
// each loop count 2..16 (a quarter of the pool) and mini-language programs
// of every count 2..16, with 8 loops common (the median op falls among
// them) and 14 loops common (the 90th percentile does).
func vetColdInputs(seed int64) []Input {
	g := newGen(seed)
	var out []Input
	for _, loops := range sizeMix(2, 16) {
		in := Input{Name: fmt.Sprintf("vet-cold/p%03d.go", len(out)), Go: true, Loops: loops}
		in.Src, in.Stmts = g.goProgram(loops)
		out = append(out, in)
	}
	for _, loops := range sizeMix(2, 16, [2]int{8, 15}, [2]int{14, 15}) {
		in := Input{Name: fmt.Sprintf("vet-cold/p%03d.loop", len(out)), Loops: loops}
		in.Src, in.Stmts = g.vetProgram(loops)
		out = append(out, in)
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// largeProgram renders an analyze-large program: one small nest per
// eight loops, and flat loops with long, distinct bodies whose sizes
// rotate through 32..128 statements, over 3..6 arrays, and whose bounds
// rotate through the constant and symbolic trips.
func (g *gen) largeProgram(loops int) (src string, nstmts int) {
	defer func() { g.prog++ }()
	nests := loops / 8
	bounds, arrays, size0 := g.rotation(len(trips)), g.rotation(4), g.rng.Intn(97)
	var parts []string
	for n := 0; n < nests; n++ {
		var b strings.Builder
		nstmts += g.nest(&b, g.rng.Intn(3), "16", trips[bounds.take()])
		parts = append(parts, b.String())
	}
	for n := 0; n < loops-2*nests; n++ {
		var b strings.Builder
		k := g.loop
		g.loop++
		fmt.Fprintf(&b, "do i = 1, %s\n", trips[bounds.take()])
		body := 32 + (size0+38*n)%97 // 38 is prime to 97: sizes spread evenly
		pool := 3 + arrays.take()
		for s := 0; s < body; s++ {
			fmt.Fprintf(&b, "  %s\n", g.recurrence(k, pool))
		}
		b.WriteString("enddo\n")
		nstmts += body
		parts = append(parts, b.String())
	}
	g.rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return strings.Join(parts, ""), nstmts
}

// recurrence renders one statement over a loop-local pool of arrays with
// small affine offsets, so stores and loads of the same array meet at
// short distances and the reuse analysis has facts to find.
func (g *gen) recurrence(k, arrays int) string {
	arr := func() string { return fmt.Sprintf("R%dx%d", k, g.rng.Intn(arrays)) }
	sub := func() string {
		switch off := g.rng.Intn(7) - 3; {
		case off > 0:
			return fmt.Sprintf("i + %d", off)
		case off < 0:
			return fmt.Sprintf("i - %d", -off)
		}
		return "i"
	}
	rhs := fmt.Sprintf("%s[%s]", arr(), sub())
	if g.rng.Intn(2) == 0 {
		rhs += fmt.Sprintf(" + %s[%s]", arr(), sub())
	}
	return fmt.Sprintf("%s[%s] := %s * %d", arr(), sub(), rhs, 2+g.rng.Intn(7))
}

// analyzeLargeInputs is the analyze-large pool: loop counts step evenly
// through 32..64, so every seed has the same size mix.
func analyzeLargeInputs(seed int64, n int) []Input {
	g := newGen(seed)
	out := make([]Input, 0, n)
	for p := 0; p < n; p++ {
		in := Input{Name: fmt.Sprintf("analyze-large/p%02d.loop", p), Loops: 32 + 32*p/max(n-1, 1)}
		in.Src, in.Stmts = g.largeProgram(in.Loops)
		out = append(out, in)
	}
	return out
}
