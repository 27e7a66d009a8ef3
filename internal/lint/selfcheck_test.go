package lint_test

import (
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/lattice"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/sema"
)

// TestSelfCheckCatchesEngineDivergence is the negative control of the
// cross-engine check: one corrupted OUT cell of one solved problem must
// turn the loop's selfcheck verdict into an engine-divergence error, while
// the untouched analysis passes.
func TestSelfCheckCatchesEngineDivergence(t *testing.T) {
	const src = `do i = 1, 100
  A[i + 2] := B[i] + 1
  C[i] := A[i] + A[i + 1]
  A[i] := C[i - 1]
enddo
`
	analyze := func() *driver.ProgramAnalysis {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, errs := sema.CheckAll(prog); len(errs) > 0 {
			t.Fatal(errs[0])
		}
		norm, err := sema.Normalize(prog)
		if err != nil {
			t.Fatal(err)
		}
		// The memo cache stays off: the corrupted result must not be shared.
		pa, err := driver.Analyze(norm, &driver.Options{Specs: lint.Specs(), DisableCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return pa
	}
	selfcheckErrors := func(pa *driver.ProgramAnalysis) []diag.Finding {
		var out []diag.Finding
		for _, f := range lint.RunOn("t.loop", pa, &lint.Options{Analyzers: []string{"selfcheck"}}) {
			if f.Severity == diag.Error {
				out = append(out, f)
			}
		}
		return out
	}

	if errs := selfcheckErrors(analyze()); len(errs) != 0 {
		t.Fatalf("clean analysis: unexpected selfcheck errors %v", errs)
	}

	pa := analyze()
	la := pa.Loops[0]
	res := la.Result("must-reaching-defs")
	if res == nil {
		t.Fatal("must-reaching-defs was not solved")
	}
	nd := la.Graph().Nodes[0]
	if v := res.Out[nd.ID][0]; v.IsAll() {
		res.Out[nd.ID][0] = lattice.None()
	} else {
		res.Out[nd.ID][0] = lattice.All()
	}
	errs := selfcheckErrors(pa)
	if len(errs) != 1 || !strings.Contains(errs[0].Message, "solver engines diverge on problem must-reaching-defs") {
		t.Fatalf("corrupted OUT cell: want one engine-divergence error, got %v", errs)
	}
}
