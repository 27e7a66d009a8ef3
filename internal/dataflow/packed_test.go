package dataflow

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/cachefile"
	"repro/internal/ir"
	"repro/internal/lattice"
	"repro/internal/synth"
)

// The four standard problem instances, hand-built because the in-package
// test cannot import internal/problems (it imports this package). The
// predicates match problems.StandardSpecs exactly.
func standardTestSpecs() []*Spec {
	return []*Spec{
		{
			Name: "must-reaching-defs",
			Gen:  func(r *ir.Ref) bool { return r.Kind == ir.Def },
			Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
		},
		{
			Name: "delta-available-values",
			Gen:  func(r *ir.Ref) bool { return true },
			Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
		},
		{
			Name:     "delta-busy-stores",
			Backward: true,
			Gen:      func(r *ir.Ref) bool { return r.Kind == ir.Def },
			Kill:     func(r *ir.Ref) bool { return r.Kind == ir.Use },
		},
		{
			Name: "delta-reaching-refs",
			May:  true,
			Gen:  func(r *ir.Ref) bool { return true },
			Kill: func(r *ir.Ref) bool { return r.Kind == ir.Def },
		},
	}
}

// differentialSources is the fuzz corpus: hand-written programs covering
// summary nodes, regions, conditionals, and known loop bounds, plus
// synthetic loops across a seed/shape sweep.
func differentialSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{
		"fig1": fig1,
		"nested-summary": `
do i = 1, N
  A[i+1] := A[i] + 1
  do j = 1, 10
    B[j] := A[i] + B[j-1]
  enddo
  C[i] := B[5] + A[i+1]
enddo
`,
		"bounded": `
do i = 1, 8
  A[i+3] := A[i] + 1
  B[i] := A[i+2]
enddo
`,
		"branchy": `
do i = 1, N
  if c1 > 0 then
    A[i+1] := B[i]
  else
    A[i+2] := B[i-1]
  endif
  B[i] := A[i]
enddo
`,
		"multidim": `
do i = 1, N
  X[i+1, i] := X[i, i] + 1
  Y[i] := X[i+1, i-1]
enddo
`,
		"same-node-seq": `
do i = 1, N
  A[i] := A[i-1] + A[i]
enddo
`,
	}
	for seed := int64(1); seed <= 6; seed++ {
		p := synth.Params{
			Seed:     seed,
			Stmts:    4 + int(seed)*5,
			Arrays:   1 + int(seed%4),
			MaxDist:  1 + seed%5,
			CondProb: float64(seed%3) * 0.3,
			UB:       (seed % 2) * 50,
		}
		prog := synth.Loop(p)
		srcs[fmt.Sprintf("synth-%d", seed)] = ast.StmtString(prog.Body[0], 0)
	}
	return srcs
}

// checkResultsIdentical asserts byte-identical tuples, snapshots, traces,
// pr values, and work counters between two Results of the same problem.
func checkResultsIdentical(t *testing.T, label string, packed, ref *Result) {
	t.Helper()
	if got, want := len(packed.Classes), len(ref.Classes); got != want {
		t.Fatalf("%s: classes = %d, want %d", label, got, want)
	}
	for i := range ref.Classes {
		if packed.Classes[i].String() != ref.Classes[i].String() {
			t.Fatalf("%s: class %d = %s, want %s", label, i, packed.Classes[i], ref.Classes[i])
		}
	}
	if got, want := packed.TupleTable(-1), ref.TupleTable(-1); got != want {
		t.Errorf("%s: fixed point differs:\npacked:\n%s\nreference:\n%s", label, got, want)
	}
	if got, want := packed.TupleTable(0), ref.TupleTable(0); got != want {
		t.Errorf("%s: init snapshot differs:\npacked:\n%s\nreference:\n%s", label, got, want)
	}
	if (packed.InitIn() == nil) != (ref.InitIn() == nil) {
		t.Errorf("%s: InitIn nil-ness: packed %v, reference %v", label, packed.InitIn() == nil, ref.InitIn() == nil)
	}
	if got, want := len(packed.Trace), len(ref.Trace); got != want {
		t.Fatalf("%s: trace length = %d, want %d", label, got, want)
	} else {
		for p := 1; p <= want; p++ {
			if packed.TupleTable(p) != ref.TupleTable(p) {
				t.Errorf("%s: pass %d snapshot differs", label, p)
			}
		}
	}
	if packed.Passes != ref.Passes || packed.ChangedPasses != ref.ChangedPasses {
		t.Errorf("%s: passes = %d/%d changing, want %d/%d",
			label, packed.Passes, packed.ChangedPasses, ref.Passes, ref.ChangedPasses)
	}
	if packed.NodeVisits != ref.NodeVisits || packed.FlowApps != ref.FlowApps {
		t.Errorf("%s: work = %d visits/%d apps, want %d/%d",
			label, packed.NodeVisits, packed.FlowApps, ref.NodeVisits, ref.FlowApps)
	}
	for _, c := range ref.Classes {
		pc := packed.Classes[c.Index]
		for _, nd := range ref.Graph.Nodes {
			if got, want := packed.Pr(pc, nd), ref.Pr(c, nd); got != want {
				t.Errorf("%s: pr(%s, n%d) = %d, want %d", label, c, nd.ID, got, want)
			}
		}
	}
	// The compiled flow functions must agree as functions, not just on the
	// fixed point: sample the lattice.
	samples := []lattice.Dist{lattice.None(), lattice.D(0), lattice.D(1), lattice.D(3), lattice.All()}
	for _, nd := range ref.Graph.Nodes {
		for ci := range ref.Classes {
			for _, x := range samples {
				if got, want := packed.ApplyFlow(nd, ci, x), ref.ApplyFlow(nd, ci, x); !got.Eq(want) {
					t.Errorf("%s: f[n%d,c%d](%s) = %s, want %s", label, nd.ID, ci, x, got, want)
				}
			}
		}
	}
}

// TestPackedReferenceDifferential fuzzes both engines over the corpus, all
// four standard specs, and the option axes, asserting identical Results.
func TestPackedReferenceDifferential(t *testing.T) {
	optVariants := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"trace", Options{CollectTrace: true}},
		{"skipinit", Options{SkipInitPass: true}},
		{"maytop", Options{MayTopStart: true, MaxPasses: 6, CollectTrace: true}},
	}
	for name, src := range differentialSources(t) {
		g := buildLoop(t, src)
		for _, spec := range standardTestSpecs() {
			for _, v := range optVariants {
				packedOpts, refOpts := v.opts, v.opts
				packedOpts.Engine = EnginePacked
				refOpts.Engine = EngineReference
				packed := Solve(g, spec, &packedOpts)
				ref := Solve(g, spec, &refOpts)
				checkResultsIdentical(t, name+"/"+spec.Name+"/"+v.name, packed, ref)
			}
		}
	}
}

// TestPersistDoesNotPinInitSnapshot checks that encoding a packed result
// for the disk cache reports and writes its deferred init snapshot without
// leaving a decoded copy on the result, and that the rows restore it.
func TestPersistDoesNotPinInitSnapshot(t *testing.T) {
	g := buildLoop(t, fig1)
	spec := standardTestSpecs()[0] // must-reaching-defs runs the init pass
	res := Solve(g, spec, &Options{Engine: EnginePacked})
	if res.initW == nil {
		t.Fatal("packed must-problem solve deferred no init snapshot")
	}
	meta := res.PersistMeta()
	var w cachefile.Writer
	res.EncodeRows(&w)
	if !meta.HasInit {
		t.Error("HasInit = false for a deferred init snapshot")
	}
	if res.initIn != nil || res.initOut != nil {
		t.Error("persisting decoded the deferred init snapshot onto the result")
	}
	restored, err := RestoreResult(g, spec, meta, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.TupleTable(0), res.TupleTable(0); got != want {
		t.Errorf("restored init snapshot differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestSolveAllMatchesSolve pins that the fused multi-spec entry point is
// observationally identical to independent Solve calls, on both engines.
func TestSolveAllMatchesSolve(t *testing.T) {
	for name, src := range differentialSources(t) {
		g := buildLoop(t, src)
		specs := standardTestSpecs()
		for _, eng := range []Engine{EnginePacked, EngineReference} {
			fused := SolveAll(g, specs, &Options{CollectTrace: true, Engine: eng})
			for i, spec := range specs {
				solo := Solve(g, spec, &Options{CollectTrace: true, Engine: eng})
				checkResultsIdentical(t, fmt.Sprintf("%s/%s/%s/fused-vs-solo", name, eng, spec.Name), fused[i], solo)
			}
		}
	}
}

// TestSolveAllSharesClassTables pins the fusion actually shares: specs with
// the same generate signature get the same *Class values from one SolveAll.
func TestSolveAllSharesClassTables(t *testing.T) {
	g := buildLoop(t, fig1)
	specs := standardTestSpecs() // reach and busy share G = defs; avail and deps share G = all
	results := SolveAll(g, specs, nil)
	if len(results[0].Classes) == 0 || len(results[1].Classes) == 0 {
		t.Fatal("expected classes on fig1")
	}
	if results[0].Classes[0] != results[2].Classes[0] {
		t.Errorf("must-reaching-defs and delta-busy-stores should share one class table")
	}
	if results[1].Classes[0] != results[3].Classes[0] {
		t.Errorf("delta-available-values and delta-reaching-refs should share one class table")
	}
}

// TestPackedSteadyStateAllocFree pins the tentpole property: once a packed
// solve is prepared, running a full iteration pass allocates nothing — on
// the word-packed fast path and on the scalar fallback alike.
func TestPackedSteadyStateAllocFree(t *testing.T) {
	g := buildLoop(t, fig1)
	for _, forceScalar := range []bool{false, true} {
		debugForceScalar = forceScalar
		for _, spec := range standardTestSpecs() {
			ctx := newSolveCtx(g)
			sc := NewScratch()
			st := ctx.prepare(spec, &Options{}, sc)
			if st.wide == forceScalar {
				t.Fatalf("%s: wide = %v with forceScalar = %v", spec.Name, st.wide, forceScalar)
			}
			st.initStage(&Options{})
			// Give the exhaustion check headroom: the measured passes must
			// never trip it.
			st.fuel = 1 << 40
			if allocs := testing.AllocsPerRun(100, func() { st.iteratePass() }); allocs != 0 {
				t.Errorf("%s (scalar=%v): steady-state iteration pass allocates %.0f objects per run, want 0",
					spec.Name, forceScalar, allocs)
			}
		}
	}
	debugForceScalar = false
}

// TestPackedScalarFallbackDifferential drives the scalar fallback path over
// the full corpus against the reference engine: the fallback must stay
// byte-identical even though the default corpus fits the word-packed path.
func TestPackedScalarFallbackDifferential(t *testing.T) {
	debugForceScalar = true
	defer func() { debugForceScalar = false }()
	for name, src := range differentialSources(t) {
		g := buildLoop(t, src)
		for _, spec := range standardTestSpecs() {
			packed := Solve(g, spec, &Options{CollectTrace: true, Engine: EnginePacked})
			ref := Solve(g, spec, &Options{CollectTrace: true, Engine: EngineReference})
			checkResultsIdentical(t, name+"/"+spec.Name+"/scalar-fallback", packed, ref)
		}
	}
}

// TestFuelDefaultNeverBinds pins that a zero Options.Fuel derives a budget
// the iteration cannot exhaust: results with and without an enormous
// explicit budget are identical, and FuelExhausted stays false across the
// whole corpus, every spec, both engines.
func TestFuelDefaultNeverBinds(t *testing.T) {
	for name, src := range differentialSources(t) {
		g := buildLoop(t, src)
		for _, spec := range standardTestSpecs() {
			for _, eng := range []Engine{EnginePacked, EngineReference} {
				res := Solve(g, spec, &Options{Engine: eng})
				if res.FuelExhausted {
					t.Fatalf("%s/%s/%s: default fuel budget %d exhausted", name, spec.Name, eng, res.FuelBudget)
				}
				if res.FuelBudget <= 0 {
					t.Fatalf("%s/%s/%s: non-positive derived budget %d", name, spec.Name, eng, res.FuelBudget)
				}
				big := Solve(g, spec, &Options{Engine: eng, Fuel: 1 << 40})
				if got, want := res.TupleTable(-1), big.TupleTable(-1); got != want {
					t.Errorf("%s/%s/%s: default-fuel fixed point differs from unlimited", name, spec.Name, eng)
				}
			}
		}
	}
}

// TestFuelExhaustionDeterministicAndSound fuzzes tiny fuel budgets over the
// corpus: for every budget both engines must exhaust identically (same
// counters, same degraded tuples) and the degraded values must be the
// claim-nothing value for the polarity — ⊥ for must, ⊤ for may — so
// consumers can only lose precision, never soundness.
func TestFuelExhaustionDeterministicAndSound(t *testing.T) {
	for name, src := range differentialSources(t) {
		g := buildLoop(t, src)
		for _, spec := range standardTestSpecs() {
			// Budgets from "dies at the first node" up past several passes.
			full := Solve(g, spec, &Options{Engine: EnginePacked})
			budgets := []int64{1, 3, int64(len(full.Classes)) + 1, int64(full.FlowApps / 2), int64(full.FlowApps) - 1}
			for _, fuel := range budgets {
				if fuel <= 0 {
					continue
				}
				label := fmt.Sprintf("%s/%s/fuel=%d", name, spec.Name, fuel)
				packed := Solve(g, spec, &Options{Engine: EnginePacked, Fuel: fuel})
				ref := Solve(g, spec, &Options{Engine: EngineReference, Fuel: fuel})
				if packed.FuelExhausted != ref.FuelExhausted {
					t.Fatalf("%s: exhausted packed=%v reference=%v", label, packed.FuelExhausted, ref.FuelExhausted)
				}
				checkResultsIdentical(t, label, packed, ref)
				if packed.FuelBudget != fuel {
					t.Errorf("%s: FuelBudget = %d", label, packed.FuelBudget)
				}
				if !packed.FuelExhausted {
					continue
				}
				// Soundness: every degraded tuple is the claim-nothing value.
				want := lattice.None()
				if spec.May {
					want = lattice.All()
				}
				for id := 1; id < len(packed.In); id++ {
					for ci := range packed.In[id] {
						if !packed.In[id][ci].Eq(want) || !packed.Out[id][ci].Eq(want) {
							t.Fatalf("%s: node %d class %d not degraded to %s", label, id, ci, want)
						}
					}
				}
				// Determinism: a repeat run exhausts with identical counters.
				again := Solve(g, spec, &Options{Engine: EnginePacked, Fuel: fuel})
				if again.NodeVisits != packed.NodeVisits || again.FlowApps != packed.FlowApps ||
					again.Passes != packed.Passes || !again.FuelExhausted {
					t.Fatalf("%s: repeat run diverged: visits %d vs %d, apps %d vs %d",
						label, again.NodeVisits, packed.NodeVisits, again.FlowApps, packed.FlowApps)
				}
			}
		}
	}
}

// TestPackedSlabLayout pins the two-slab storage shape: a 1-based nil row
// 0 (node IDs start at 1) and full-capacity row views, so writes through one
// row can never bleed into a neighbor even though all rows share a backing.
func TestPackedSlabLayout(t *testing.T) {
	g := buildLoop(t, fig1)
	res := Solve(g, mustReach(), nil)
	m := len(res.Classes)
	for _, rows := range [][]lattice.Tuple{res.In, res.Out} {
		if rows[0] != nil {
			t.Fatal("row 0 must stay nil (node IDs are 1-based)")
		}
		if len(rows) != len(g.Nodes)+1 {
			t.Fatalf("rows = %d, want %d", len(rows), len(g.Nodes)+1)
		}
		for id := 1; id < len(rows); id++ {
			if len(rows[id]) != m || cap(rows[id]) != m {
				t.Fatalf("row %d len/cap = %d/%d, want %d/%d (full-capacity view)",
					id, len(rows[id]), cap(rows[id]), m, m)
			}
		}
	}
}
