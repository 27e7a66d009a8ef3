package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/lint"
)

// The tree the benchmark reads goldens and examples from.
const treeRoot = ".."

func TestGenerationIsSeeded(t *testing.T) {
	gens := map[string]func(int64) []Input{
		"vet-cold":      vetColdInputs,
		"analyze-large": func(s int64) []Input { return analyzeLargeInputs(s, analyzeLargePool) },
		"serve-warm":    serveBaseInputs,
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}
}

func mustFrontEnd(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := frontEnd(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestOracleObservesConflicts(t *testing.T) {
	prog := mustFrontEnd(t, `do i = 1, 8
  A[i + 1] := A[i] + B[i]
enddo
do i = 1, 8
  C[i] := C[i] * 2 + B[i + 1]
enddo
do j = 1, 4
  do i = 1, 4
    X[i, j + 1] := X[i, j] + 1
  enddo
enddo
`)
	obs, err := observe(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	outer := prog.Body[2].(*ast.DoLoop)
	want := map[*ast.DoLoop]bool{
		prog.Body[0].(*ast.DoLoop):  true,  // flow dependence at distance 1
		prog.Body[1].(*ast.DoLoop):  false, // each iteration its own element
		outer:                       true,  // carried by j
		outer.Body[0].(*ast.DoLoop): false, // not carried by i
	}
	for loop, conflict := range want {
		got, ok := obs.Conflict[loop.Pos()]
		if !ok || got != conflict {
			t.Errorf("loop over %s at %s: conflict %v (ran %v), want %v", loop.Var, loop.Pos(), got, ok, conflict)
		}
	}
}

func TestReuseOracleRejectsWrongClaims(t *testing.T) {
	prog := mustFrontEnd(t, `do i = 1, 16
  A[i + 2] := A[i] * 2
  B[i] := A[i + 1] + A[i]
enddo
`)
	pa, err := driver.Analyze(prog, &driver.Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	claims := reuseClaims(pa)
	obs, err := observe(prog, claims)
	if err != nil {
		t.Fatal(err)
	}
	if obs.ReuseErr != nil || obs.ReuseChecks == 0 {
		t.Fatalf("true claims: %d confirmed, error %v", obs.ReuseChecks, obs.ReuseErr)
	}
	for ref := range claims {
		for i := range claims[ref] {
			claims[ref][i].dist++
		}
	}
	if obs, err = observe(prog, claims); err != nil || obs.ReuseErr == nil {
		t.Fatalf("claims off by one iteration were not rejected (err %v)", err)
	}
}

func TestTracedOpMatchesUntraced(t *testing.T) {
	ins := vetColdInputs(3)
	var tried [2]bool
	for _, in := range ins {
		if tried[btoi(in.Go)] || in.Loops < 6 {
			continue
		}
		tried[btoi(in.Go)] = true
		want, _ := vetOnce(in, &lint.Options{})
		op, err := vetTraced(newTracer(), 0, in, &lint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(op.out, want) {
			t.Errorf("%s: traced output differs from untraced", in.Name)
		}
	}
	in := analyzeLargeInputs(3, 1)[0]
	want, err := analyzeOnce(in)
	if err != nil {
		t.Fatal(err)
	}
	op, err := analyzeTraced(newTracer(), 0, in)
	if err != nil || !bytes.Equal(op.out, want) {
		t.Errorf("analyze: traced output differs from untraced (err %v)", err)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestFlippedVerdictFailsOracle flips one decided verdict in each
// direction; the oracle, which never consults the analyzer, must object.
func TestFlippedVerdictFailsOracle(t *testing.T) {
	in := Input{Name: "flip.loop", Src: "do i = 1, 8\n  A[i + 1] := A[i]\nenddo\ndo i = 1, 8\n  B[i] := B[i] + 1\nenddo\n"}
	_, res := vetOnce(in, &lint.Options{})
	if _, err := verifyVet(in, res); err != nil {
		t.Fatalf("unmodified result rejected: %v", err)
	}
	flips := 0
	for i, f := range res.Findings {
		v := f.Detail["verdict"]
		if f.Analyzer != "race" || (v != "racy" && v != "parallel") {
			continue
		}
		flipped := *res
		flipped.Findings = append([]diag.Finding(nil), res.Findings...)
		detail := map[string]string{}
		for k, val := range f.Detail {
			detail[k] = val
		}
		detail["verdict"] = map[string]string{"racy": "parallel", "parallel": "racy"}[v]
		flipped.Findings[i].Detail = detail
		if _, err := verifyVet(in, &flipped); err == nil {
			t.Errorf("verdict %s flipped to %s was accepted", v, detail["verdict"])
		}
		flips++
	}
	if flips != 2 {
		t.Fatalf("flipped %d verdicts, want 2", flips)
	}
}

// failedFrac runs op for a short while and returns the failed share.
func failedFrac(op func(k, seq int) (cost, error)) float64 {
	_, attempted, failed := loop(50*time.Millisecond, op)
	return float64(failed) / float64(attempted)
}

func TestWrongOutputsCountAsFailedOps(t *testing.T) {
	w := &vetCold{}
	if _, err := w.setup(5); err != nil {
		t.Fatal(err)
	}
	if f := failedFrac(w.op); f != 0 {
		t.Fatalf("failed_frac %v on the unmodified program", f)
	}
	// A program that answers one input with a flipped verdict or one
	// corrupted byte no longer matches the verified output.
	for i, want := range w.want {
		if bytes.Contains(want, []byte("is provably parallel")) {
			w.want[i] = bytes.Replace(want, []byte("is provably parallel"), []byte("is provably racy"), 1)
			break
		}
	}
	if f := failedFrac(w.op); f == 0 {
		t.Error("a flipped verdict left failed_frac at 0")
	}
	if _, err := w.setup(5); err != nil {
		t.Fatal(err)
	}
	w.want[0] = append([]byte(nil), w.want[0]...)
	w.want[0][len(w.want[0])/2] ^= 1
	if f := failedFrac(w.op); f == 0 {
		t.Error("a corrupted output byte left failed_frac at 0")
	}
}

func TestServerErrorsCountAsFailedOps(t *testing.T) {
	srv, err := startServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	if err != nil {
		t.Fatal(err)
	}
	base := Input{Name: "b.loop", Src: "do i = 1, 4\n  A[i] := B[i]\nenddo\n"}
	w := &serveWarm{srv: srv, bases: []Input{base}, edits: [][]int{editPoints(base.Src)},
		want: [][]byte{nil}, choices: [][2]int{{0, 0}}, status: map[int]int{}}
	defer w.close()
	if f := failedFrac(w.op); f == 0 {
		t.Error("5xx responses left failed_frac at 0")
	}
	if w.status[http.StatusInternalServerError] == 0 {
		t.Error("5xx responses were not counted")
	}
}

func TestGoldensGate(t *testing.T) {
	matched, failures, err := checkGoldens(treeRoot)
	if err != nil {
		t.Fatal(err)
	}
	if matched != 11 || len(failures) > 0 {
		t.Fatalf("goldens: %d matched, failures %v", matched, failures)
	}
	// A copy of the tree with one golden byte changed must fail the gate.
	tmp := t.TempDir()
	for _, pattern := range []string{filepath.Join("examples", "*.loop"), filepath.Join("internal", "lint", "testdata", "*.golden")} {
		paths, err := filepath.Glob(filepath.Join(treeRoot, pattern))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: %v", pattern, err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			dst := filepath.Join(tmp, filepath.Dir(pattern), filepath.Base(p))
			if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dst, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	golden := filepath.Join(tmp, "internal", "lint", "testdata", "fig1.golden")
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(golden, []byte(strings.Replace(string(b), "racy", "RACY", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, failures, err = checkGoldens(tmp); err != nil || len(failures) != 1 {
		t.Fatalf("corrupted golden: failures %v, err %v", failures, err)
	}
}
