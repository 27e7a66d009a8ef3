package lint

import (
	"fmt"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/lattice"
)

// selfCheckAnalyzer validates the framework's own guarantees on every
// solved problem of the loop: each compiled flow function must be monotone
// over the distance lattice and idempotent (f∘f = f) on body nodes — the
// properties behind the paper's rapid-convergence argument — and the solve
// must have stabilized within two changing passes (§3.4). Violations are
// errors; a clean loop yields one informational finding so the check's
// coverage is visible in the output.
var selfCheckAnalyzer = &Analyzer{
	ID:      "selfcheck",
	Doc:     "framework invariants: monotone, idempotent flow functions and 2-pass convergence",
	Problem: "all solved problems (§3.4 convergence bound)",
	Default: diag.Info,
	Run:     runSelfCheck,
}

// selfCheckSamples spans the lattice's shape: bottom, several finite
// distances (including non-adjacent ones), and top.
var selfCheckSamples = []lattice.Dist{
	lattice.None(), lattice.D(0), lattice.D(1), lattice.D(2),
	lattice.D(3), lattice.D(7), lattice.All(),
}

func runSelfCheck(c *Context) []diag.Finding {
	names := make([]string, 0, len(c.Loop.Results()))
	for name := range c.Loop.Results() {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []diag.Finding
	checked := 0
	maxChanged := 0
	for _, name := range names {
		res := c.Loop.Result(name)
		for _, nd := range c.Loop.Graph().Nodes {
			for ci := range res.Classes {
				checked++
				fx := make([]lattice.Dist, len(selfCheckSamples))
				for i, x := range selfCheckSamples {
					fx[i] = res.ApplyFlow(nd, ci, x)
				}
				for i, x := range selfCheckSamples {
					for j, y := range selfCheckSamples {
						if x.Cmp(y) <= 0 && fx[i].Cmp(fx[j]) > 0 {
							out = append(out, selfCheckViolation(c, nd, fmt.Sprintf(
								"flow function of node n%d (problem %s, class %s) is not monotone: f(%s)=%s exceeds f(%s)=%s",
								nd.ID, name, res.Classes[ci], x, fx[i], y, fx[j])))
						}
					}
					// The exit node's function is the iteration increment and
					// is intentionally not idempotent; body nodes must be.
					if nd.Kind != ir.KindExit {
						if ffx := res.ApplyFlow(nd, ci, fx[i]); !ffx.Eq(fx[i]) {
							out = append(out, selfCheckViolation(c, nd, fmt.Sprintf(
								"flow function of node n%d (problem %s, class %s) is not idempotent: f(f(%s))=%s but f(%s)=%s",
								nd.ID, name, res.Classes[ci], x, ffx, x, fx[i])))
						}
					}
				}
			}
		}
		if res.ChangedPasses > maxChanged {
			maxChanged = res.ChangedPasses
		}
		// A fuel-exhausted solve stopped before its fixed point, so the
		// paper's convergence bound does not apply to its pass count.
		if res.ChangedPasses > 2 && !res.FuelExhausted {
			out = append(out, diag.Finding{
				Analyzer: "selfcheck",
				Pos:      c.Loop.Loop.Pos(),
				Severity: diag.Error,
				Message: fmt.Sprintf("problem %s needed %d changing passes on the loop over %s, exceeding the framework's bound of 2",
					name, res.ChangedPasses, c.Loop.Loop.Var),
				Detail: map[string]string{"problem": name, "changedPasses": fmt.Sprintf("%d", res.ChangedPasses)},
			})
		}
		out = append(out, crossEngineCheck(c, name, res)...)
	}
	if len(out) == 0 {
		out = append(out, diag.Finding{
			Analyzer: "selfcheck",
			Pos:      c.Loop.Loop.Pos(),
			Severity: diag.Info,
			Message: fmt.Sprintf("framework self-check passed for the loop over %s: %d flow functions monotone and idempotent over %d lattice samples, %d problem(s) converged within %d changing pass(es), both solver engines agree",
				c.Loop.Loop.Var, checked, len(selfCheckSamples), len(names), maxChanged),
			Detail: map[string]string{
				"flowFunctions": fmt.Sprintf("%d", checked),
				"samples":       fmt.Sprintf("%d", len(selfCheckSamples)),
				"problems":      fmt.Sprintf("%d", len(names)),
				"changedPasses": fmt.Sprintf("%d", maxChanged),
				"engines":       "agree",
			},
		})
	}
	return out
}

// crossEngineCheck re-solves the problem with the engine that did NOT
// produce res and compares the fixed-point tuple tables. The two
// implementations (packed slabs vs the per-node reference solver) share
// nothing but the spec, so byte-identical tables are strong evidence
// neither has drifted. A divergence is an error finding: one of the
// engines is wrong and every analyzer downstream of it is suspect.
func crossEngineCheck(c *Context, name string, res *dataflow.Result) []diag.Finding {
	other := dataflow.EngineReference
	if c.Engine == dataflow.EngineReference {
		other = dataflow.EnginePacked
	}
	// The re-solve runs under the same fuel budget and the same range-fact
	// oracle so a degraded (or fact-strengthened) solution is compared
	// against an identically parameterized one, not a different problem.
	var oracle dataflow.RangeOracle
	if f := c.Facts(); !f.Empty() && !f.Exhausted() {
		oracle = f
	}
	res2 := dataflow.Solve(c.Loop.Graph(), res.Spec, &dataflow.Options{Engine: other, Fuel: c.Fuel, Facts: oracle})
	if sameFixedPoint(res, res2) || res.TupleTable(-1) == res2.TupleTable(-1) {
		return nil
	}
	return []diag.Finding{{
		Analyzer: "selfcheck",
		Pos:      c.Loop.Loop.Pos(),
		Severity: diag.Error,
		Message: fmt.Sprintf("solver engines diverge on problem %s for the loop over %s: the %s engine's fixed point differs from the %s engine's",
			name, c.Loop.Loop.Var, engineName(c.Engine), string(other)),
		Detail: map[string]string{
			"problem":      name,
			"engine":       engineName(c.Engine),
			"crossChecked": string(other),
		},
	}}
}

// sameFixedPoint reports, without rendering, that two solutions of one
// graph would print the same fixed-point TupleTable: the same class
// headers and the same IN/OUT value in every cell. false means only that
// the structural comparison found a difference; the caller then compares
// the rendered tables, so the verdict is the rendered comparison's.
func sameFixedPoint(a, b *dataflow.Result) bool {
	if a.Graph != b.Graph || len(a.Classes) != len(b.Classes) || a.In == nil || b.In == nil || a.Out == nil || b.Out == nil {
		return false
	}
	for i, c := range a.Classes {
		if c.String() != b.Classes[i].String() {
			return false
		}
	}
	for _, nd := range a.Graph.Nodes {
		if !a.In[nd.ID].Eq(b.In[nd.ID]) || !a.Out[nd.ID].Eq(b.Out[nd.ID]) {
			return false
		}
	}
	return true
}

// engineName renders the engine, mapping the zero value to its default.
func engineName(e dataflow.Engine) string {
	if e == "" {
		return string(dataflow.EnginePacked)
	}
	return string(e)
}

func selfCheckViolation(c *Context, nd *ir.Node, msg string) diag.Finding {
	pos := nd.SrcPos
	if !pos.IsValid() {
		pos = c.Loop.Loop.Pos()
	}
	return diag.Finding{Analyzer: "selfcheck", Pos: pos, Severity: diag.Error, Message: msg}
}
