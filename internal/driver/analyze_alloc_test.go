package driver

import (
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/synth"
)

// allocProgram is the fixed input of TestAnalyzePathAllocCeiling: a
// synthetic many-loop program followed by loops that Normalize rewrites
// (non-unit lower bounds and steps, a nest, a guarded body).
func allocProgram() string {
	src := ast.ProgramString(synth.MultiLoopProgram(synth.MultiParams{
		Seed: 21, Loops: 8, StmtsPer: 16, NestEvery: 4, UB: 64}))
	return src + `do i = 3, 90, 3
  A[i] := A[i - 3] + B[2 * i + 1]
  if i > 9 then
    B[i] := A[i - 6]
  endif
enddo
do i = 40, 1, -1
  do j = 2, 20, 2
    C[i, j] := C[i + 1, j - 2] + i
  enddo
enddo
`
}

// TestAnalyzePathAllocCeiling pins the allocation cost of the analyze path
// `arrayflow -program` takes: parse, CheckAll, Normalize, Analyze and
// Report of one fixed program, cold and serial, as a whole and per stage.
// Counts and bytes are deterministic for one Go release. Measured with Go
// 1.24 on linux/amd64 (per run, parse / normalize / report / pipeline):
// 2198 / 2508 / 3 / 9873 allocations and 99,352 / 103,112 / 27,312 /
// 729,987 bytes. The stage ceilings sit 15% above those figures and the
// pipeline's 25%, margins that absorb runtime differences between Go
// releases but not the regressions they guard: materializing the token
// stream as a slice again more than doubles parse's bytes, a second deep
// copy in Normalize nearly doubles its count, and fmt in Report costs
// thousands of allocations. Under -race, where sync.Pool drops items at
// random, the pipeline measured ~2% more allocations and ~6% more bytes.
func TestAnalyzePathAllocCeiling(t *testing.T) {
	src := allocProgram()
	mustParse := func() *ast.Program {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	checked := mustParse()
	if _, errs := sema.CheckAll(checked); len(errs) > 0 {
		t.Fatal(errs[0])
	}
	mustNormalize := func(prog *ast.Program) *ast.Program {
		norm, err := sema.Normalize(prog)
		if err != nil {
			t.Fatal(err)
		}
		return norm
	}
	normalized := mustNormalize(checked)
	mustAnalyze := func(norm *ast.Program) *ProgramAnalysis {
		pa, err := Analyze(norm, &Options{NestVectors: true, DisableCache: true, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		return pa
	}
	analyzed := mustAnalyze(normalized)

	stages := []struct {
		name                string
		run                 func()
		maxAllocs, maxBytes float64
	}{
		{"parse", func() { mustParse() }, 2530, 114_300},
		{"normalize", func() { mustNormalize(checked) }, 2890, 118_600},
		{"report", func() { analyzed.Report() }, 16, 31_400},
		{"pipeline", func() {
			prog := mustParse()
			if _, errs := sema.CheckAll(prog); len(errs) > 0 {
				t.Fatal(errs[0])
			}
			if mustAnalyze(mustNormalize(prog)).Report() == "" {
				t.Fatal("empty report")
			}
		}, 12_340, 912_500},
	}
	for _, st := range stages {
		allocs := testing.AllocsPerRun(5, st.run)
		bytes := bytesPerRun(5, st.run)
		t.Logf("%s (%d source bytes): %.0f allocs, %.0f bytes per run", st.name, len(src), allocs, bytes)
		if allocs > st.maxAllocs {
			t.Errorf("%s: %.0f allocations per run, ceiling %.0f", st.name, allocs, st.maxAllocs)
		}
		if bytes > st.maxBytes {
			t.Errorf("%s: %.0f bytes allocated per run, ceiling %.0f", st.name, bytes, st.maxBytes)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes: one warm-up
// call, then the mean over runs, measured with GOMAXPROCS at 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
