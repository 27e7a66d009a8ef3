// Dynamic certification bridge: the race analyzer's static verdicts are
// validated on the reference interpreter. Racy witnesses replay concretely
// (the two claimed iterations must touch the same element), and
// provably-parallel loops run once in natural order and once under a
// shuffled iteration schedule with the final array states compared.
//
// Executed references are matched to witness references by rendered source
// text, not pointer identity: the driver's content-addressed memo cache
// may hand a loop the graph of a structurally identical twin, so the ref
// Exprs in a LoopAnalysis can alias a different loop's AST. The rendered
// text of a normalized reference is identical across such twins.
package lint

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/interp"
)

// permutationSeed fixes the shuffled schedule of the parallel permutation
// check; a constant keeps vet output byte-identical across runs.
const permutationSeed = 0x5eed

// dynamicMaxSteps bounds the dynamic certification checks so a
// pathological program cannot hang vet.
const dynamicMaxSteps = 4_000_000

// runKind classifies the interpreter runs a runSet makes.
type runKind int

const (
	runProbe   runKind = iota // unseeded run recording every loop's trip
	runNatural                // seeded run in natural iteration order
	runReplay                 // seeded run replaying one loop's witness
	runShuffle                // seeded run with one loop's order shuffled
	numRunKinds
)

// runSet holds the interpreter runs that certify one program's loops. A
// realized scalar environment is usually shared by many loops, so its
// probe run (which records the largest induction value of every loop),
// its seeded initial state and its natural-order run are computed once
// and reused; only a witness replay and a shuffled run belong to a single
// loop. Safe for concurrent use by the ForEachLoop workers: each
// environment's shared runs sit behind sync.Once.
type runSet struct {
	prog *ast.Program
	free []string // freeScalars(prog)

	mu   sync.Mutex
	envs map[string]*envRuns // keyed by the free scalars' values

	// runs counts interp.Run calls by runKind.
	runs [numRunKinds]atomic.Int64
}

// envRuns are the shared runs of one realized scalar environment. env is
// never mutated once the entry exists.
type envRuns struct {
	env map[string]int64

	probeOnce sync.Once
	trips     map[*ast.DoLoop]int64
	probeErr  error

	seedOnce sync.Once
	init     *interp.State

	naturalOnce sync.Once
	natural     *interp.State
	naturalErr  error
}

func newRunSet(prog *ast.Program) *runSet {
	return &runSet{prog: prog, free: freeScalars(prog), envs: map[string]*envRuns{}}
}

// run executes the program from init under opts, counting the call. Runs
// share init's arrays: the run set never mutates a state.
func (rs *runSet) run(kind runKind, init *interp.State, opts *interp.Options) (*interp.State, error) {
	rs.runs[kind].Add(1)
	opts.ShareInit = true
	st, _, err := interp.Run(rs.prog, init, opts)
	return st, err
}

// entry returns the shared runs of env, creating them on first use. The
// caller must not mutate env afterwards.
func (rs *runSet) entry(env map[string]int64) *envRuns {
	var key []byte
	for _, name := range rs.free {
		key = strconv.AppendInt(key, env[name], 10)
		key = append(key, ',')
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	er := rs.envs[string(key)]
	if er == nil {
		er = &envRuns{env: env}
		rs.envs[string(key)] = er
	}
	return er
}

// probe runs the program under the bare scalar environment once and
// reports the largest induction value each loop reached.
func (rs *runSet) probe(er *envRuns) (map[*ast.DoLoop]int64, error) {
	er.probeOnce.Do(func() {
		st := interp.NewState()
		for k, v := range er.env {
			st.Scalars[k] = v
		}
		trips := map[*ast.DoLoop]int64{}
		_, er.probeErr = rs.run(runProbe, st, &interp.Options{
			MaxSteps: dynamicMaxSteps,
			LoopIter: func(l *ast.DoLoop, i int64) {
				if i > trips[l] {
					trips[l] = i
				}
			},
		})
		er.trips = trips
	})
	return er.trips, er.probeErr
}

// seeded returns the environment's seeded initial state, shared
// read-only by every seeded run under the environment.
func (rs *runSet) seeded(er *envRuns) *interp.State {
	er.seedOnce.Do(func() { er.init = seededState(rs.prog, er.env) })
	return er.init
}

// naturalRun returns the final state of the environment's natural-order
// run from the seeded state.
func (rs *runSet) naturalRun(er *envRuns) (*interp.State, error) {
	er.naturalOnce.Do(func() {
		er.natural, er.naturalErr = rs.run(runNatural, rs.seeded(er), &interp.Options{MaxSteps: dynamicMaxSteps})
	})
	return er.natural, er.naturalErr
}

// ReplayWitness executes the (checked, normalized) program and confirms
// that the witness's two references touch the same array element at the
// claimed iterations of loop. Free scalars — including a symbolic loop
// bound — are bound to deterministic values that drive the loop to at
// least IterLate iterations. A nil return means the race was observed.
func ReplayWitness(prog *ast.Program, loop *ast.DoLoop, w *Witness) error {
	return newRunSet(prog).replayWitness(loop, w)
}

func (rs *runSet) replayWitness(loop *ast.DoLoop, w *Witness) error {
	er, err := rs.realizeTrip(loop, w.IterLate)
	if err != nil {
		return err
	}
	var expected string
	if w.HasCell {
		expected = cellKey(w.Cell)
	}
	var (
		active    bool
		cur       int64
		fromCells map[string]bool
		sawEarly  bool
		sawLate   bool
		confirmed bool
	)
	opts := &interp.Options{
		MaxSteps: dynamicMaxSteps,
		LoopIter: func(l *ast.DoLoop, i int64) {
			if l != loop {
				return
			}
			if i == 1 && !confirmed {
				// Normalized loops start at 1, so this is a new dynamic
				// instance; collisions must not span instances.
				fromCells = map[string]bool{}
			}
			active, cur = true, i
		},
		LoopDone: func(l *ast.DoLoop) {
			if l == loop {
				active = false
			}
		},
		TraceRef: func(ref *ast.ArrayRef, isStore bool, idx []int64) {
			if !active || confirmed || ref.Name != w.Array {
				return
			}
			key := cellKey(idx)
			text := ast.ExprString(ref)
			if cur == w.IterEarly && isStore == w.FromStore && text == w.FromText {
				sawEarly = true
				if !w.HasCell || key == expected {
					fromCells[key] = true
				}
			}
			if cur == w.IterLate && isStore == w.ToStore && text == w.ToText {
				sawLate = true
				if fromCells[key] {
					confirmed = true
				}
			}
		},
	}
	_, runErr := rs.run(runReplay, rs.seeded(er), opts)
	if confirmed {
		return nil
	}
	if runErr != nil {
		return fmt.Errorf("interpreter run failed before the witness was reached: %v", runErr)
	}
	switch {
	case !sawEarly:
		return fmt.Errorf("%s did not execute at iteration %d of the loop over %s",
			accessText(w.FromText, w.FromStore), w.IterEarly, w.IV)
	case !sawLate:
		return fmt.Errorf("%s did not execute at iteration %d of the loop over %s",
			accessText(w.ToText, w.ToStore), w.IterLate, w.IV)
	default:
		return fmt.Errorf("%s (iteration %d) and %s (iteration %d) touched different elements of %s, expected %s",
			accessText(w.FromText, w.FromStore), w.IterEarly,
			accessText(w.ToText, w.ToStore), w.IterLate, w.Array, w.CellString())
	}
}

// PermutationCheck runs the program twice on identical seeded inputs —
// once with loop's natural iteration order, once with a deterministically
// shuffled schedule — and reports an error when the final array states
// differ. A certified-parallel loop must pass for any seed.
func PermutationCheck(prog *ast.Program, loop *ast.DoLoop, seed int64) error {
	return newRunSet(prog).permutationCheck(loop, seed)
}

func (rs *runSet) permutationCheck(loop *ast.DoLoop, seed int64) error {
	er, err := rs.realizeTrip(loop, 3)
	if err != nil {
		// A shorter schedule still permutes when the loop runs at all;
		// a loop that cannot be driven has nothing to falsify.
		er, err = rs.realizeTrip(loop, 2)
		if err != nil {
			return nil
		}
	}
	natural, errA := rs.naturalRun(er)
	if errA != nil {
		// The probe inputs do not execute cleanly (e.g. division by zero in
		// unrelated code); there is no baseline to compare against.
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	shuffled, errB := rs.run(runShuffle, rs.seeded(er), &interp.Options{
		MaxSteps: dynamicMaxSteps,
		LoopOrder: func(l *ast.DoLoop, iters []int64) []int64 {
			if l != loop {
				return nil
			}
			out := make([]int64, len(iters))
			copy(out, iters)
			rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
			return out
		},
	})
	if errB != nil {
		return fmt.Errorf("shuffled run failed where the natural order succeeded: %v", errB)
	}
	if d := interp.DiffArrays(natural, shuffled); d != "" {
		return fmt.Errorf("final array states diverged: %s", d)
	}
	return nil
}

// realizeTrip binds every free scalar of the program to a deterministic
// value such that the given loop executes at least need iterations,
// growing the free scalars of the loop bound geometrically until the trip
// count (observed on the environment's shared probe run) suffices.
func (rs *runSet) realizeTrip(loop *ast.DoLoop, need int64) (*envRuns, error) {
	env := make(map[string]int64, len(rs.free))
	for k, name := range rs.free {
		env[name] = int64(5 + 2*k)
	}
	hiIDs := freeIdentsIn(loop.Hi, rs.free)
	for attempt := 0; ; attempt++ {
		er := rs.entry(env)
		trips, err := rs.probe(er)
		trip := trips[loop]
		if trip >= need {
			return er, nil
		}
		if attempt >= 20 || len(hiIDs) == 0 {
			if err != nil {
				return nil, fmt.Errorf("cannot drive the loop to iteration %d: %v", need, err)
			}
			return nil, fmt.Errorf("cannot drive the loop to iteration %d (reached %d)", need, trip)
		}
		next := make(map[string]int64, len(env))
		for k, v := range env {
			next[k] = v
		}
		for k, id := range hiIDs {
			next[id] = next[id]*2 + need + int64(k)
		}
		env = next
	}
}

// freeScalars returns the scalar names the program reads but never
// assigns (induction variables count as assigned), sorted.
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

// freeIdentsIn returns the subset of free that occurs in e, sorted.
func freeIdentsIn(e ast.Expr, free []string) []string {
	set := make(map[string]bool, len(free))
	for _, f := range free {
		set[f] = true
	}
	seen := map[string]bool{}
	var out []string
	ast.InspectExpr(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && set[id.Name] && !seen[id.Name] {
			seen[id.Name] = true
			out = append(out, id.Name)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// seededState builds the initial interpreter state: env for the scalars,
// and every array pre-filled with distinct deterministic values over a
// bounded index box (declared bounds when present). Distinct values make
// order-dependent overwrites visible to the permutation check.
func seededState(prog *ast.Program, env map[string]int64) *interp.State {
	st := interp.NewState()
	for k, v := range env {
		st.Scalars[k] = v
	}
	ndims := map[string]int{}
	declared := map[string][]int64{}
	ast.Inspect(prog.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ArrayRef:
			if len(x.Subs) > ndims[x.Name] {
				ndims[x.Name] = len(x.Subs)
			}
		case *ast.Dim:
			var sizes []int64
			for _, sz := range x.Sizes {
				if lit, ok := sz.(*ast.IntLit); ok {
					sizes = append(sizes, lit.Value)
				} else {
					sizes = append(sizes, 0)
				}
			}
			declared[x.Name] = sizes
			if len(x.Sizes) > ndims[x.Name] {
				ndims[x.Name] = len(x.Sizes)
			}
		}
		return true
	})
	names := make([]string, 0, len(ndims))
	for n := range ndims {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		nd := ndims[name]
		if nd == 0 {
			continue
		}
		lo, hi := seedRanges(nd, declared[name])
		cells := map[string]int64{}
		seedArray(cells, name, make([]int64, 0, nd), lo, hi, make([]byte, 0, 64))
		st.Arrays[name] = cells
	}
	return st
}

// seedRanges picks the per-dimension index box to pre-fill: declared
// arrays seed their 1-based range (capped), undeclared arrays a small box
// around the origin including negative indices.
func seedRanges(nd int, sizes []int64) (lo, hi []int64) {
	lo = make([]int64, nd)
	hi = make([]int64, nd)
	var limit int64
	switch {
	case nd == 1:
		limit = 96
	case nd == 2:
		limit = 20
	default:
		limit = 8
	}
	for d := 0; d < nd; d++ {
		if d < len(sizes) && sizes[d] > 0 {
			lo[d] = 1
			hi[d] = sizes[d]
			if hi[d] > limit {
				hi[d] = limit
			}
		} else {
			lo[d] = -4
			hi[d] = limit
		}
	}
	return lo, hi
}

func seedArray(cells map[string]int64, name string, idx []int64, lo, hi []int64, key []byte) {
	d := len(idx)
	if d == len(lo) {
		key = interp.AppendElemKey(key[:0], idx)
		cells[string(key)] = seedValue(name, key)
		return
	}
	for v := lo[d]; v <= hi[d]; v++ {
		seedArray(cells, name, append(idx, v), lo, hi, key)
	}
}

// seedValue derives a nonzero deterministic element value from the array
// name and element key.
func seedValue(name string, key []byte) int64 {
	h := fnv.New32a()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write(key)
	return int64(h.Sum32()%997) + 1
}

// cellKey matches the interpreter's element-key encoding.
func cellKey(idx []int64) string {
	var buf [64]byte
	return string(interp.AppendElemKey(buf[:0], idx))
}
