package main

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/token"
)

// oracleScalar is the value every free scalar (symbolic bounds, symbolic
// offsets, Go len() bounds) takes in the oracle run: large enough that
// every constant-distance collision the generator can produce happens
// inside the trip count.
const oracleScalar = 40

// cellKey names one array element; the generator's arrays have at most
// three dimensions.
type cellKey struct {
	arr string
	n   int
	idx [3]int64
}

// cellUse is what one dynamic loop instance has seen of one element.
type cellUse struct {
	first int64 // iteration of the first access
	multi bool  // accessed in two or more distinct iterations
	store bool  // stored at least once
	// The most recent store, for the reuse oracle.
	stored    bool
	lastIter  int64
	lastStore *ast.ArrayRef
}

// loopRun is the state of the current dynamic instance of one loop.
type loopRun struct {
	loop  *ast.DoLoop
	iter  int64
	cells map[cellKey]*cellUse
}

// reuseClaim is one reported reuse: a load of At at iteration t reads the
// value some member of From stored at iteration t−Dist.
type reuseClaim struct {
	loop *ast.DoLoop
	from map[*ast.ArrayRef]bool
	dist int64
	text string
}

// Observation is the ground truth of one interpreter run.
type Observation struct {
	// Conflict maps each executed loop's position to whether two different
	// iterations of one dynamic instance touched the same element with at
	// least one store among the accesses.
	Conflict map[token.Pos]bool
	// ReuseChecks counts reuse-claim instances confirmed; ReuseErr is the
	// first claim instance that failed.
	ReuseChecks int
	ReuseErr    error
}

// observe runs prog (checked and normalized) once on the interpreter,
// free scalars bound to oracleScalar, and records cross-iteration
// conflicts per loop. When claims is non-nil it also checks every claim on
// each executed load it covers.
func observe(prog *ast.Program, claims map[*ast.ArrayRef][]reuseClaim) (*Observation, error) {
	obs := &Observation{Conflict: map[token.Pos]bool{}}
	init := interp.NewState()
	for _, name := range freeScalars(prog) {
		init.Scalars[name] = oracleScalar
	}
	runs := map[*ast.DoLoop]*loopRun{}
	var active []*loopRun
	opts := &interp.Options{
		LoopIter: func(l *ast.DoLoop, i int64) {
			r := runs[l]
			if r == nil {
				r = &loopRun{loop: l}
				runs[l] = r
			}
			if r.cells == nil {
				r.cells = map[cellKey]*cellUse{}
				active = append(active, r)
				if _, seen := obs.Conflict[l.Pos()]; !seen {
					obs.Conflict[l.Pos()] = false
				}
			}
			r.iter = i
		},
		LoopDone: func(l *ast.DoLoop) {
			if r := runs[l]; r != nil && r.cells != nil {
				r.cells = nil
				active = active[:len(active)-1]
			}
		},
		TraceRef: func(ref *ast.ArrayRef, isStore bool, idx []int64) {
			key := cellKey{arr: ref.Name, n: len(idx)}
			copy(key.idx[:], idx)
			for _, r := range active {
				cu := r.cells[key]
				if cu == nil {
					cu = &cellUse{first: r.iter}
					r.cells[key] = cu
				} else if cu.first != r.iter {
					cu.multi = true
				}
				if isStore {
					cu.store = true
				}
				if cu.multi && cu.store {
					obs.Conflict[r.loop.Pos()] = true
				}
				if !isStore {
					for _, c := range claims[ref] {
						if c.loop == r.loop {
							obs.checkReuse(c, r.iter, cu)
						}
					}
					continue
				}
				cu.stored, cu.lastIter, cu.lastStore = true, r.iter, ref
			}
		},
	}
	if _, _, err := interp.Run(prog, init, opts); err != nil {
		return nil, fmt.Errorf("oracle run: %w", err)
	}
	return obs, nil
}

// checkReuse confirms one executed instance of a reuse claim: from
// iteration Dist+1 on, the element the load reads was last stored Dist
// iterations earlier by a member of the claimed class.
func (obs *Observation) checkReuse(c reuseClaim, t int64, cu *cellUse) {
	if t-c.dist < 1 || obs.ReuseErr != nil {
		return
	}
	if !cu.stored || cu.lastIter != t-c.dist || !c.from[cu.lastStore] {
		got := "no earlier store"
		if cu.stored {
			got = fmt.Sprintf("last stored by %s at iteration %d", ast.ExprString(cu.lastStore), cu.lastIter)
		}
		obs.ReuseErr = fmt.Errorf("reuse claim %q fails at iteration %d: %s", c.text, t, got)
		return
	}
	obs.ReuseChecks++
}

// reuseClaims collects the loop-own reuse claims of an analysis made with
// the memo cache disabled, so every reference pointer is one of prog's
// own. Claims involving summarized inner-loop references are left out:
// their instance within an outer iteration is not a single access.
func reuseClaims(pa *driver.ProgramAnalysis) map[*ast.ArrayRef][]reuseClaim {
	out := map[*ast.ArrayRef][]reuseClaim{}
	for _, la := range pa.Loops {
		for _, r := range la.Reuses() {
			if r.At.FromInner {
				continue
			}
			c := reuseClaim{loop: la.Loop, from: map[*ast.ArrayRef]bool{}, dist: r.Distance, text: r.String()}
			for _, m := range r.From.Members {
				if !m.FromInner {
					c.from[m.Expr] = true
				}
			}
			if len(c.from) > 0 {
				out[r.At.Expr] = append(out[r.At.Expr], c)
			}
		}
	}
	return out
}

// freeScalars returns the scalar names prog reads but never assigns
// (induction variables count as assigned), sorted.
func freeScalars(prog *ast.Program) []string {
	assigned := map[string]bool{}
	used := map[string]bool{}
	ast.Inspect(prog.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DoLoop:
			assigned[x.Var] = true
		case *ast.Assign:
			if id, ok := x.LHS.(*ast.Ident); ok {
				assigned[id.Name] = true
			}
		case *ast.Ident:
			used[x.Name] = true
		}
		return true
	})
	var out []string
	for name := range used {
		if !assigned[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
