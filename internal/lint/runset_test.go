package lint

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/parser"
	"repro/internal/sema"
)

// sharedRunsSrc has two provably parallel and two provably racy loops
// whose certification needs no more iterations than the default scalar
// environment (n = 5) drives, so all four share one environment.
const sharedRunsSrc = `dim A[64]
dim B[64]
dim C[64]
do i = 1, 20
  A[i] := B[i] + 1
enddo
do j = 1, 20
  C[j+2] := C[j] * 2
enddo
do k = 1, n
  B[k] := A[k] * 3
enddo
do m = 1, 20
  A[m+1] := A[m] + 1
enddo
`

func analyzeSrc(t *testing.T, src string) *driver.ProgramAnalysis {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	norm, err := sema.Normalize(prog)
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	pa, err := driver.Analyze(norm, &driver.Options{Specs: Specs(), Parallelism: 1, DisableCache: true})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return pa
}

// runCounts reads the run set's interp.Run tally by kind.
func runCounts(rs *runSet) [numRunKinds]int64 {
	var out [numRunKinds]int64
	for k := range out {
		out[k] = rs.runs[k].Load()
	}
	return out
}

// TestRunSetCostModel pins the cost of certifying a program: under one
// realized environment, one probe run and one natural-order run serve
// every loop, plus one witness replay per racy loop and one shuffled run
// per parallel loop — not a probe and a natural run per loop.
func TestRunSetCostModel(t *testing.T) {
	pa := analyzeSrc(t, sharedRunsSrc)
	rs := newRunSet(pa.Prog)
	findings := runOn("<shared>", pa, &Options{Analyzers: []string{"race"}}, rs)
	verdicts := map[string]int{}
	for _, f := range findings {
		if f.Severity == diag.Error {
			t.Errorf("certification failed: %s", f)
		}
		verdicts[f.Detail["verdict"]]++
	}
	if verdicts["parallel"] != 2 || verdicts["racy"] != 2 {
		t.Fatalf("verdicts = %v, want 2 parallel and 2 racy", verdicts)
	}
	want := [numRunKinds]int64{runProbe: 1, runNatural: 1, runReplay: 2, runShuffle: 2}
	if got := runCounts(rs); got != want {
		t.Errorf("interp.Run calls by kind (probe, natural, replay, shuffle) = %v, want %v", got, want)
	}
	if len(rs.envs) != 1 {
		t.Errorf("realized environments = %d, want 1", len(rs.envs))
	}
}

// TestRunSetNegativeControls re-runs the bridge's negative controls on a
// multi-loop program whose loops share one run set: a corrupted witness
// must still fail replay and a racy loop forced through the permutation
// check must still diverge, while the genuine checks of sibling loops
// pass off the same shared probe and natural runs.
func TestRunSetNegativeControls(t *testing.T) {
	pa := analyzeSrc(t, sharedRunsSrc)
	rs := newRunSet(pa.Prog)
	ctx := func(i int) *Context {
		return &Context{File: "<shared>", Program: pa.Prog, Info: pa.Info, Loop: pa.Loops[i], runs: rs}
	}
	var racy, parallel []int
	for i := range pa.Loops {
		switch CertifyLoop(ctx(i)).Class {
		case VerdictRacy:
			racy = append(racy, i)
		case VerdictParallel:
			parallel = append(parallel, i)
		}
	}
	if len(racy) != 2 || len(parallel) != 2 {
		t.Fatalf("racy loops %v, parallel loops %v; want two of each", racy, parallel)
	}

	for _, i := range racy {
		loop := pa.Loops[i].Loop
		w := CertifyLoop(ctx(i)).Witness
		if err := rs.replayWitness(loop, w); err != nil {
			t.Errorf("loop over %s: genuine witness must replay: %v", loop.Var, err)
		}
		bogus := *w
		bogus.IterLate++
		bogus.Distance++
		if err := rs.replayWitness(loop, &bogus); err == nil {
			t.Errorf("loop over %s: corrupted witness replayed without error", loop.Var)
		}
		if err := rs.permutationCheck(loop, permutationSeed); err == nil {
			t.Errorf("loop over %s: permutation check passed on a racy loop", loop.Var)
		}
	}
	for _, i := range parallel {
		loop := pa.Loops[i].Loop
		if err := rs.permutationCheck(loop, permutationSeed); err != nil {
			t.Errorf("loop over %s: parallel loop diverged: %v", loop.Var, err)
		}
	}
	want := [numRunKinds]int64{runProbe: 1, runNatural: 1, runReplay: 4, runShuffle: 4}
	if got := runCounts(rs); got != want {
		t.Errorf("interp.Run calls by kind (probe, natural, replay, shuffle) = %v, want %v", got, want)
	}
}

// TestRunSetParallelismInvariant renders the findings of a program whose
// loops share certification runs, serially and with every worker the
// machine has, and requires identical bytes: which worker fills a shared
// run must not show in the output.
func TestRunSetParallelismInvariant(t *testing.T) {
	src := sharedRunsSrc + `do p = 1, n
  C[p] := C[p+1] + A[p]
enddo
do q = 1, 30
  B[q] := C[q] + A[q+1]
enddo
`
	render := func(parallelism int) []byte {
		res := Vet("<par>", src, &Options{Parallelism: parallelism, DisableCache: true})
		var buf bytes.Buffer
		for _, f := range res.Findings {
			fmt.Fprintf(&buf, "%s detail=%v related=%v\n", f, f.Detail, f.Related)
		}
		return buf.Bytes()
	}
	want := render(1)
	if !bytes.Contains(want, []byte("permutation:verified")) || !bytes.Contains(want, []byte("replay:confirmed")) {
		t.Fatalf("expected both dynamic checks in the serial output:\n%s", want)
	}
	for run := 0; run < 10; run++ {
		if got := render(0); !bytes.Equal(got, want) {
			t.Fatalf("run %d at GOMAXPROCS diverged\n-- got --\n%s-- want --\n%s", run, got, want)
		}
	}
}
