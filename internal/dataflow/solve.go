package dataflow

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/lattice"
	"repro/internal/poly"
	"repro/internal/sema"
)

// Spec parameterizes the framework with the pair (G, K) of paper §3.1: a
// predicate selecting the references that generate instances and one
// selecting the references that kill instances, together with the problem's
// direction and polarity.
type Spec struct {
	// Name identifies the problem in reports (e.g. "must-reaching-defs").
	Name string
	// Backward solves on the reverse graph with the backward kill-distance
	// function (paper §3.4).
	Backward bool
	// May selects the reverse lattice (meet = max) and overestimating
	// preserve constants (paper §3.3).
	May bool
	// Gen reports whether a reference generates instances.
	Gen func(r *ir.Ref) bool
	// Kill reports whether a reference kills instances.
	Kill func(r *ir.Ref) bool
}

// Class is one tracked entity of the analysis: the equivalence class of
// generating references with the same array and the same affine subscript.
// In the common case each class has a single member (e.g. the four
// definitions of Figure 1); δ-busy stores track textually distinct
// subscript expressions, which this classing realizes.
type Class struct {
	Index int // position in the solution tuples
	Array string
	Form  sema.AffineForm
	// Members are the references of this class in source order.
	Members []*ir.Ref
}

// String renders the class by its first member's textual reference,
// e.g. "C[i + 2]" or "X[i + 1, j]".
func (c *Class) String() string {
	if len(c.Members) > 0 {
		return ast.ExprString(c.Members[0].Expr)
	}
	return fmt.Sprintf("%s[%s]", c.Array, c.Form)
}

// WriteTo appends String()'s rendering to b; a class with members, the
// only kind a solve produces, renders without an intermediate string.
func (c *Class) WriteTo(b *strings.Builder) {
	if len(c.Members) > 0 {
		ast.WriteExpr(b, c.Members[0].Expr)
		return
	}
	b.WriteString(c.String())
}

// Result is the fixed point solution of one problem instance on one graph.
type Result struct {
	Graph   *ir.Graph
	Spec    *Spec
	Classes []*Class
	// ct is the class table behind Classes/ClassOf; ClassFor answers from
	// its lazily built key index in O(1) instead of a scan per query.
	ct *classTable
	// prZero, when set (packed engine), holds one bitset per class over node
	// IDs with pr(class, node) = 0; prOf answers from it without touching
	// the members.
	prZero [][]uint64

	// In and Out are the fixed point tuples per node ID (1-based). For
	// backward problems, following the paper's convention, In[n] describes
	// node n's *exit* (information entering n in the reversed graph) and
	// Out[n] its entry.
	In  []lattice.Tuple
	Out []lattice.Tuple

	// initIn / initOut snapshot the initialization pass (must-problems);
	// read them through InitIn/InitOut. The packed engine defers decoding:
	// initW holds the packed init-pass words (IN rows, then OUT rows) and
	// initPk their layout until the first accessor call, so solves whose
	// snapshot nobody reads never materialize it.
	initIn   []lattice.Tuple
	initOut  []lattice.Tuple
	initW    []uint64
	initPk   lattice.Packing
	initOnce sync.Once
	// Trace holds per-pass snapshots of (In, Out) when solving with
	// CollectTrace (pass 1 first).
	Trace []TraceEntry

	// Passes is the number of iteration passes executed until the tuples
	// stabilized (the stabilizing confirmation pass included).
	Passes int
	// ChangedPasses is the number of passes that changed at least one tuple.
	ChangedPasses int
	// NodeVisits counts every node visit across the initialization and all
	// iteration passes.
	NodeVisits int
	// FlowApps counts flow-function applications (one per tracked class per
	// node visit) during the iteration passes.
	FlowApps int
	// Elapsed is the wall time of the Solve call.
	Elapsed time.Duration

	// FuelBudget is the resolved fuel budget the solve ran under (the
	// explicit Options.Fuel, or the derived never-binding default).
	FuelBudget int64
	// FuelExhausted reports that the iteration ran out of fuel and every
	// tuple was degraded to the claim-nothing value of the problem's
	// polarity (must → ⊥, may → ⊤). Degraded results are sound but carry
	// no information; consumers surface them as "unknown".
	FuelExhausted bool

	// flowFns are the compiled per-node, per-class flow functions of the
	// reference engine, kept so consumers (the framework self-check
	// analyzer) can re-apply them to arbitrary lattice values after the
	// solve. Indexed [nodeID][classIndex]. Packed results keep prog instead
	// and serve ApplyFlow as views into its op arena. Results restored from
	// the persistent cache carry neither and compile flowFns lazily under
	// flowOnce on the first ApplyFlow call.
	flowFns  [][]flowFn
	prog     *packedProgram
	flowOnce sync.Once

	// facts is the range-fact oracle the solve compiled its preserve
	// constants under (nil = none); symUB/hasSymUB cache the loop bound as
	// a polynomial when the bound is symbolic. Results restored from the
	// persistent cache must have the original oracle re-attached via
	// SetOracle BEFORE the first ApplyFlow call, or the lazily recompiled
	// flow functions would disagree with the cached tuples.
	facts    RangeOracle
	symUB    poly.Poly
	hasSymUB bool

	// inBack / outBack are the pooled backings of the In/Out slabs (packed
	// engine only); Release returns them to the pools. Nil after Release or
	// for reference-engine results.
	inBack  lattice.Tuple
	outBack lattice.Tuple
}

// Metrics is the cheap per-solve instrumentation bundle: the empirical
// check of the paper's ≤ 3-pass claim plus the raw work counters a driver
// aggregates across loops.
type Metrics struct {
	// Nodes and Classes give the problem size (N and m of the paper's
	// O(N·m) bound).
	Nodes   int
	Classes int
	// Passes is the total iteration passes (confirmation pass included);
	// ChangedPasses those that changed a tuple (paper claim: ≤ 2 for
	// must-problems, ≤ 1 for may-problems).
	Passes        int
	ChangedPasses int
	// NodeVisits counts node visits across initialization and iteration.
	NodeVisits int
	// FlowApps counts per-class flow-function applications while iterating.
	FlowApps int
	// Elapsed is the solve's wall time.
	Elapsed time.Duration
	// FuelExhausted reports that the solve (or, after Add, any aggregated
	// solve) ran out of fuel and degraded its tuples to "unknown".
	FuelExhausted bool
}

// symUBOf returns the loop bound as a polynomial over invariant symbols
// when the bound exists but is not a compile-time constant. A bound that
// fails to convert (e.g. mentions an array element) yields ok=false and
// symbolic-top resolution is simply unavailable.
func symUBOf(g *ir.Graph) (poly.Poly, bool) {
	if g.HasUB || g.UB == nil {
		return poly.Poly{}, false
	}
	p, err := sema.ExprToPoly(g.UB)
	if err != nil {
		return poly.Poly{}, false
	}
	return p, true
}

// SetOracle re-attaches the range-fact oracle a cached solve originally ran
// under. Results restored from the persistent cache carry no compiled flow
// functions and rebuild them lazily on the first ApplyFlow call; that
// recompilation must see the same oracle (and derived symbolic bound) the
// cached tuples were computed with, so drivers call SetOracle immediately
// after restore, before handing the Result to any consumer.
func (res *Result) SetOracle(f RangeOracle) {
	res.facts = f
	res.symUB, res.hasSymUB = symUBOf(res.Graph)
}

// Metrics bundles the result's instrumentation counters.
func (res *Result) Metrics() Metrics {
	return Metrics{
		Nodes:         len(res.Graph.Nodes),
		Classes:       len(res.Classes),
		Passes:        res.Passes,
		ChangedPasses: res.ChangedPasses,
		NodeVisits:    res.NodeVisits,
		FlowApps:      res.FlowApps,
		Elapsed:       res.Elapsed,
		FuelExhausted: res.FuelExhausted,
	}
}

// Add accumulates counters (wall times sum; sizes and passes take the max,
// so an aggregate still checks the per-solve pass bound).
func (m *Metrics) Add(o Metrics) {
	if o.Nodes > m.Nodes {
		m.Nodes = o.Nodes
	}
	if o.Classes > m.Classes {
		m.Classes = o.Classes
	}
	if o.Passes > m.Passes {
		m.Passes = o.Passes
	}
	if o.ChangedPasses > m.ChangedPasses {
		m.ChangedPasses = o.ChangedPasses
	}
	m.NodeVisits += o.NodeVisits
	m.FlowApps += o.FlowApps
	m.Elapsed += o.Elapsed
	m.FuelExhausted = m.FuelExhausted || o.FuelExhausted
}

// fuelExhaustedTotal counts fuel-exhausted solves process-wide; the service
// stats endpoint exposes it.
var fuelExhaustedTotal atomic.Int64

// FuelExhaustedTotal returns the number of solves in this process that ran
// out of fuel and degraded their results to "unknown".
func FuelExhaustedTotal() int64 { return fuelExhaustedTotal.Load() }

// TraceEntry snapshots one iteration pass.
type TraceEntry struct {
	In  []lattice.Tuple
	Out []lattice.Tuple
}

// Engine selects the solver implementation.
type Engine string

const (
	// EnginePacked is the default engine: IN/OUT tuples in two flat slabs,
	// compiled flow functions in one index-addressed op arena, per-class
	// predecessor bitsets, and a reused scratch tuple that makes the
	// steady-state iteration passes allocation-free.
	EnginePacked Engine = "packed"
	// EngineReference is the straightforward per-node implementation kept
	// as the executable specification: differential tests assert the packed
	// engine produces byte-identical results, and benchmarks use it as the
	// ablation baseline.
	EngineReference Engine = "reference"
)

// Options tunes the solver.
type Options struct {
	// CollectTrace records per-pass snapshots (used to reproduce Table 1).
	CollectTrace bool
	// Engine selects the solver implementation; the zero value runs the
	// packed engine. Both engines produce byte-identical Results.
	Engine Engine
	// MaxPasses bounds iteration (0 = default 64). The theory guarantees
	// convergence in 2 changing passes; the bound protects against
	// violations of the structured-loop preconditions.
	MaxPasses int
	// Fuel bounds the iteration's total flow applications: every node
	// visit debits one unit per tracked class, and when the remaining
	// budget cannot cover a visit the solve stops and degrades every tuple
	// to the claim-nothing value of the problem's polarity (must → ⊥,
	// may → ⊤), setting Result.FuelExhausted. Zero derives a budget from
	// MaxPasses·nodes·classes that can never bind, so by default fuel
	// changes nothing; an explicit budget gives a hard worst-case latency
	// bound for hostile or pathological inputs. Both engines debit and
	// degrade identically.
	Fuel int64
	// SkipInitPass suppresses the initialization pass for must-problems
	// (ablation: shows the init pass is required for 2-pass convergence).
	SkipInitPass bool
	// MayTopStart initializes a may-problem at ⊤ ("no instance") instead
	// of the paper's ⊥ ("all instances") start — the §3.3 ablation: the
	// exit function is not weakly idempotent in the reverse lattice, so
	// the iteration climbs the distance chain one pass per iteration and,
	// with an unknown loop bound, "could continue infinitely" (it hits
	// MaxPasses instead).
	MayTopStart bool
	// Scratch supplies a caller-owned free list for the solve's transient
	// buffers; drivers keep one per worker goroutine so repeated solves
	// allocate no transients. Nil borrows one from a process-wide pool. A
	// Scratch must not be used by two solves concurrently.
	Scratch *Scratch
	// Facts supplies loop-invariant range facts to the preserve derivation,
	// letting symbolic kill-distance comparisons resolve (rangefacts). Nil
	// means no symbolic comparison resolves. The oracle participates in the
	// solve's semantics, so drivers must fold its Signature into any memo
	// key and hand the SAME oracle to both engines — the differential
	// contract (byte-identical Results) holds per oracle, not across them.
	Facts RangeOracle
}

// Solve computes the greatest fixed point of spec over g. The packed engine
// runs unless opts selects EngineReference.
func Solve(g *ir.Graph, spec *Spec, opts *Options) *Result {
	if opts == nil {
		opts = &Options{}
	}
	if opts.Engine == EngineReference {
		return solveReference(g, spec, opts)
	}
	sc, done := scratchFor(opts)
	defer done()
	return newSolveCtx(g).solve(spec, opts, sc)
}

// SolveAll solves several problem instances on one graph through a shared
// solve context: class discovery (per generate-predicate signature), node
// orderings, and the precedes bit matrix are computed once and reused by
// every spec. Results are returned in spec order and are identical to
// len(specs) independent Solve calls.
func SolveAll(g *ir.Graph, specs []*Spec, opts *Options) []*Result {
	if opts == nil {
		opts = &Options{}
	}
	out := make([]*Result, len(specs))
	if opts.Engine == EngineReference {
		for i, spec := range specs {
			out[i] = solveReference(g, spec, opts)
		}
		return out
	}
	ctx := newSolveCtx(g)
	ctx.shared = true
	sc, done := scratchFor(opts)
	defer done()
	for i, spec := range specs {
		out[i] = ctx.solve(spec, opts, sc)
	}
	return out
}

// solveReference is the executable specification of the framework: one
// freshly allocated tuple per node and per applyFlow call, per-node flow
// functions compiled through member sets, pr computed by walking class
// members. Kept verbatim for differential testing against the packed engine.
func solveReference(g *ir.Graph, spec *Spec, opts *Options) *Result {
	start := time.Now()
	res := &Result{Graph: g, Spec: spec}
	defer func() { res.Elapsed = time.Since(start) }()
	res.SetOracle(opts.Facts)
	res.adoptClasses(buildClassTable(g, spec.Gen))
	m := len(res.Classes)
	n := len(g.Nodes)

	res.In = makeTuples(n, m)
	res.Out = makeTuples(n, m)

	// Per-node, per-class flow functions, precomputed once.
	fns := res.buildFlowFunctions()
	res.flowFns = fns

	order := g.RPO()
	if spec.Backward {
		order = reverseOrder(g)
	}
	entry := g.Entry
	if spec.Backward {
		entry = g.Exit
	}

	preds := func(nd *ir.Node) []*ir.Node {
		if spec.Backward {
			return nd.Succs
		}
		return nd.Preds
	}

	// --- Initialization (paper §3.2 for must, §3.3 for may) -------------
	if spec.May {
		// May-problems start every value at "all instances" (the reverse
		// lattice's ⊥); no initialization pass is needed. The MayTopStart
		// ablation starts at "no instance" instead.
		start := lattice.All()
		if opts.MayTopStart {
			start = lattice.None()
		}
		for id := 1; id <= n; id++ {
			res.In[id].Fill(start)
			res.Out[id].Fill(start)
		}
	} else if opts.SkipInitPass {
		// Ablation: naive ⊤ start.
		for id := 1; id <= n; id++ {
			res.In[id].Fill(lattice.All())
			res.Out[id].Fill(lattice.All())
		}
	} else {
		visited := make([]bool, n+1)
		for _, nd := range order {
			res.NodeVisits++
			in := res.In[nd.ID]
			if nd == entry {
				in.Fill(lattice.None())
			} else {
				in.Fill(lattice.All())
				any := false
				for _, p := range preds(nd) {
					if !visited[p.ID] {
						continue // back-edge predecessor: excluded from init
					}
					in.MeetInto(res.Out[p.ID], false)
					any = true
				}
				if !any {
					in.Fill(lattice.None())
				}
			}
			out := res.Out[nd.ID]
			copy(out, in)
			for _, c := range res.Classes {
				if fns[nd.ID][c.Index].generates() {
					out[c.Index] = lattice.All()
				}
			}
			visited[nd.ID] = true
		}
		res.initIn = snapshot(res.In)
		res.initOut = snapshot(res.Out)
	}

	// --- Fixed point iteration ------------------------------------------
	maxPasses := opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 64
	}
	// Fuel accounting mirrors the packed engine exactly: the budget is
	// checked before a visit and debited per flow application, so both
	// engines exhaust at the same node of the same pass.
	fuel := resolveFuel(opts, maxPasses, n, m)
	res.FuelBudget = fuel
	exhausted := false
	for pass := 1; pass <= maxPasses; pass++ {
		changed := false
		for _, nd := range order {
			if fuel < int64(m) {
				exhausted = true
				break
			}
			res.NodeVisits++
			in := res.In[nd.ID]
			ps := preds(nd)
			if len(ps) > 0 {
				if spec.May {
					in.Fill(lattice.None())
				} else {
					in.Fill(lattice.All())
				}
				for _, p := range ps {
					in.MeetInto(res.Out[p.ID], spec.May)
				}
			}
			fuel -= int64(m)
			newOut := applyFlow(nd, g, fns[nd.ID], in, res)
			if !newOut.Eq(res.Out[nd.ID]) {
				changed = true
				copy(res.Out[nd.ID], newOut)
			}
		}
		if exhausted {
			break
		}
		res.Passes = pass
		if changed {
			res.ChangedPasses++
		}
		if opts.CollectTrace {
			res.Trace = append(res.Trace, TraceEntry{In: snapshot(res.In), Out: snapshot(res.Out)})
		}
		if !changed {
			break
		}
	}
	if exhausted {
		res.degradeExhausted()
	}
	return res
}

// flowOp is one step of a node's flow function for one class: either a
// generate (max(x, 0)) or a preserve cap (min(x, p)).
type flowOp struct {
	gen  bool
	pres lattice.Dist
}

// flowFn is the compiled flow function of one node for one class: the
// composition of per-reference effects in execution order (reversed for
// backward problems). Sequencing matters within a node: in
// "A[i] := … A[i-1] …" the use observes memory before the definition
// overwrites it, which a single gen-or-preserve function cannot express —
// collapsing the two was a soundness bug our differential fuzzer caught.
type flowFn struct {
	ops []flowOp
}

// generates reports whether any step of the function generates (used by
// the initialization pass's overestimate).
func (f flowFn) generates() bool {
	for _, op := range f.ops {
		if op.gen {
			return true
		}
	}
	return false
}

// classKey identifies a tracked class by array name and the canonical
// renderings of its affine coefficients (poly.String is deterministic, so
// equal polynomials render equally).
type classKey struct {
	array string
	a, b  string
}

// classTable is the class discovery for one generate predicate on one
// graph: the classes in first-occurrence order, a dense ref-ID →
// class-index array that replaces per-ref map lookups (-1 = not a member),
// and the lazily built key index behind ClassFor.
type classTable struct {
	classes  []*Class
	refClass []int32
	// byArray maps an array name to the indices of its classes: discovery
	// compares subscripts only within one array's classes, and the packed
	// compiler uses it to visit only the classes a node can affect.
	byArray map[string][]int32

	// byKey indexes classes by (array, affine form renderings) for
	// ClassFor. It is built once, on first lookup, because rendering the
	// polynomial keys costs more than the rest of class discovery combined
	// and most solves (benchmarks, whole-program passes without lint) never
	// call ClassFor at all.
	byKeyOnce sync.Once
	byKey     map[classKey]*Class
}

// lookup finds the class for (array, form), building the key index on
// first use. Safe for concurrent callers on a finished table.
func (ct *classTable) lookup(array string, form sema.AffineForm) *Class {
	ct.byKeyOnce.Do(func() {
		ct.byKey = make(map[classKey]*Class, len(ct.classes))
		for _, c := range ct.classes {
			ct.byKey[classKey{c.Array, c.Form.A.String(), c.Form.B.String()}] = c
		}
	})
	return ct.byKey[classKey{array, form.A.String(), form.B.String()}]
}

// buildClassTable groups the generating references of g under gen into
// equivalence classes (same array, same affine subscript form). Grouping
// compares polynomials with Equal, but only within the reference's own
// array's classes (the byArray index): cross-array comparisons can never
// match, and on wide problems (every statement its own array) they made
// discovery quadratic in the class count.
func buildClassTable(g *ir.Graph, gen func(*ir.Ref) bool) *classTable {
	ct := &classTable{
		classes:  make([]*Class, 0, 8),
		refClass: make([]int32, len(g.Refs)+1),
		byArray:  make(map[string][]int32),
	}
	for i := range ct.refClass {
		ct.refClass[i] = -1
	}
	// Pass 1: assign classes. g.Refs is ID-ordered, so classes are
	// discovered (and indexed) in first-occurrence source order.
	total := 0
	for _, r := range g.Refs {
		if !gen(r) || !r.Affine || r.FromInner {
			continue
		}
		var c *Class
		for _, ci := range ct.byArray[r.Array] {
			cand := ct.classes[ci]
			if cand.Form.A.Equal(r.Form.A) && cand.Form.B.Equal(r.Form.B) {
				c = cand
				break
			}
		}
		if c == nil {
			c = &Class{Index: len(ct.classes), Array: r.Array, Form: r.Form}
			ct.classes = append(ct.classes, c)
			ct.byArray[r.Array] = append(ct.byArray[r.Array], int32(c.Index))
		}
		ct.refClass[r.ID] = int32(c.Index)
		total++
	}
	// Pass 2: fill the member lists as views into one backing array (one
	// allocation instead of per-class append chains). Counting goes through
	// the already-assigned refClass, so no subscript comparisons re-run.
	counts := make([]int32, len(ct.classes)+1)
	for _, r := range g.Refs {
		if ci := ct.refClass[r.ID]; ci >= 0 {
			counts[ci+1]++
		}
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	backing := make([]*ir.Ref, total)
	next := make([]int32, len(ct.classes))
	copy(next, counts)
	for _, r := range g.Refs {
		if ci := ct.refClass[r.ID]; ci >= 0 {
			backing[next[ci]] = r
			next[ci]++
		}
	}
	for i, c := range ct.classes {
		c.Members = backing[counts[i]:counts[i+1]:counts[i+1]]
	}
	return ct
}

// adoptClasses installs a class table's views on the result.
func (res *Result) adoptClasses(ct *classTable) {
	res.Classes = ct.classes
	res.ct = ct
}

// ClassOf returns the class of a generating reference, or nil when the
// reference is not a class member. It answers from the table's dense
// ref-ID array; no map is built.
func (res *Result) ClassOf(r *ir.Ref) *Class {
	if ci := res.ct.refClass[r.ID]; ci >= 0 {
		return res.ct.classes[ci]
	}
	return nil
}

// InitIn returns the IN snapshot of the initialization pass, or nil when
// the solve ran none (may-problems, SkipInitPass). Packed solves decode the
// snapshot lazily on the first call; safe for concurrent readers.
func (res *Result) InitIn() []lattice.Tuple {
	res.decodeInit()
	return res.initIn
}

// InitOut returns the OUT snapshot of the initialization pass; see InitIn.
func (res *Result) InitOut() []lattice.Tuple {
	res.decodeInit()
	return res.initOut
}

// decodeInit materializes the deferred packed init snapshot, once.
func (res *Result) decodeInit() {
	res.initOnce.Do(func() {
		if res.initIn != nil || res.initW == nil {
			return
		}
		res.initIn, res.initOut = res.decodeInitW()
	})
}

// initSnapshot returns the init snapshot without keeping a decoded copy of
// a deferred packed one on the result, for one-off readers (the disk
// encoder) that must not pin it.
func (res *Result) initSnapshot() (in, out []lattice.Tuple) {
	if res.initW != nil {
		return res.decodeInitW()
	}
	return res.InitIn(), res.InitOut()
}

// decodeInitW decodes the packed init-pass words into fresh slabs.
func (res *Result) decodeInitW() (in, out []lattice.Tuple) {
	n := len(res.Graph.Nodes)
	m := len(res.Classes)
	pk := &res.initPk
	words := pk.Words
	in = lattice.Slab(n, m)
	out = lattice.Slab(n, m)
	for id := 1; id <= n; id++ {
		pk.DecodeRow(in[id], res.initW[id*words:(id+1)*words])
		pk.DecodeRow(out[id], res.initW[(n+1+id)*words:(n+2+id)*words])
	}
	return in, out
}

// prOf computes pr(class, n): 0 when any member of the class occurs in a
// node that precedes n in the body (for backward problems: that n precedes,
// since the reverse graph swaps the ordering). Packed results answer from
// the precomputed per-class bitset.
func (res *Result) prOf(c *Class, nd *ir.Node) int64 {
	if res.prZero != nil {
		if bitGet(res.prZero[c.Index], nd.ID) {
			return 0
		}
		return 1
	}
	for _, mem := range c.Members {
		if res.Spec.Backward {
			if res.Graph.Precedes(nd, mem.Node) {
				return 0
			}
		} else {
			if res.Graph.Precedes(mem.Node, nd) {
				return 0
			}
		}
	}
	return 1
}

func (res *Result) buildFlowFunctions() [][]flowFn {
	g := res.Graph
	fns := make([][]flowFn, len(g.Nodes)+1)
	for _, nd := range g.Nodes {
		row := make([]flowFn, len(res.Classes))
		for _, c := range res.Classes {
			row[c.Index] = res.compileNodeClass(nd, c)
		}
		fns[nd.ID] = row
	}
	return fns
}

// compileNodeClass builds the op sequence of node nd for class c.
func (res *Result) compileNodeClass(nd *ir.Node, c *Class) flowFn {
	g := res.Graph
	memberSet := map[*ir.Ref]bool{}
	for _, mem := range c.Members {
		if mem.Node == nd {
			memberSet[mem] = true
		}
	}

	// Reference effects in execution order.
	refs := nd.Refs
	if nd.Kind == ir.KindSummary {
		// A summary node stands for a whole inner loop whose internal
		// order is unknown at this level; order the effects by polarity so
		// the collapsed function stays a safe approximation: must-problems
		// apply generates before kills (underestimate), may-problems kills
		// before generates (overestimate).
		var gens, kills []*ir.Ref
		for _, r := range refs {
			if memberSet[r] {
				gens = append(gens, r)
			} else {
				kills = append(kills, r)
			}
		}
		if res.Spec.May {
			refs = append(append([]*ir.Ref{}, kills...), gens...)
		} else {
			refs = append(append([]*ir.Ref{}, gens...), kills...)
		}
	}

	nodePr := res.prOf(c, nd)
	var ops []flowOp
	genSeen := false
	addCap := func(p lattice.Dist) {
		// Merge consecutive caps.
		if n := len(ops); n > 0 && !ops[n-1].gen {
			ops[n-1].pres = lattice.Min(ops[n-1].pres, p)
			return
		}
		ops = append(ops, flowOp{pres: p})
	}

	seq := refs
	if res.Spec.Backward {
		seq = make([]*ir.Ref, len(refs))
		for i, r := range refs {
			seq[len(refs)-1-i] = r
		}
	}
	for _, r := range seq {
		if memberSet[r] {
			ops = append(ops, flowOp{gen: true})
			genSeen = true
			continue
		}
		if !res.Spec.Kill(r) || r.Array != c.Array {
			continue
		}
		pr := nodePr
		if genSeen {
			// A member of the class already executed within this node
			// before the kill: the distance-0 instance is in range.
			pr = 0
		}
		ctx := KillContext{
			Pr:       pr,
			May:      res.Spec.May,
			Backward: res.Spec.Backward,
			UB:       g.UBConst,
			HasUB:    g.HasUB,
			SymUB:    res.symUB,
			HasSymUB: res.hasSymUB,
			Facts:    res.facts,
		}
		var p lattice.Dist
		if r.FromInner && r.HasRegion {
			p = PreserveAgainstRegion(c.Form, r.RegionLo, r.RegionHi, ctx)
		} else {
			p = PreserveConst(c.Form, r.Form, r.Affine && !r.FromInner, ctx)
		}
		if p.IsAll() {
			continue // identity cap
		}
		addCap(p)
	}
	return flowFn{ops: ops}
}

// applyFlow computes f_n(in) into a scratch tuple.
func applyFlow(nd *ir.Node, g *ir.Graph, fns []flowFn, in lattice.Tuple, res *Result) lattice.Tuple {
	out := make(lattice.Tuple, len(in))
	res.FlowApps += len(in)
	for i, x := range in {
		out[i] = applyOne(nd, g, fns[i], x)
	}
	return out
}

// applyOne applies node nd's flow function for one class to a single lattice
// value. The exit node's function is the loop-closing increment (clamped at
// the constant bound when known); every other node applies its compiled
// generate/preserve op sequence.
func applyOne(nd *ir.Node, g *ir.Graph, fn flowFn, x lattice.Dist) lattice.Dist {
	if nd.Kind == ir.KindExit {
		v := x.Inc()
		if g.HasUB {
			v = v.Clamp(g.UBConst)
		}
		return v
	}
	v := x
	for _, op := range fn.ops {
		if op.gen {
			v = lattice.Max(v, lattice.D(0))
		} else {
			v = lattice.Min(v, op.pres)
		}
	}
	return v
}

// ApplyFlow re-applies the solved problem's flow function of node nd for the
// class with the given index to an arbitrary lattice value. It is read-only
// and safe for concurrent use on a finished Result; the framework
// self-check analyzer uses it to test monotonicity and idempotence of the
// compiled functions over sampled lattice values.
func (res *Result) ApplyFlow(nd *ir.Node, classIndex int, x lattice.Dist) lattice.Dist {
	if res.flowFns == nil && res.prog == nil {
		// Restored from the persistent cache: neither engine's compiled form
		// survives serialization (both are pure functions of the graph), so
		// compile the reference form once on first use.
		res.flowOnce.Do(func() { res.flowFns = res.buildFlowFunctions() })
	}
	if res.flowFns != nil {
		return applyOne(nd, res.Graph, res.flowFns[nd.ID][classIndex], x)
	}
	fn := flowFn{ops: res.prog.ops(nd.ID*len(res.Classes) + classIndex)}
	return applyOne(nd, res.Graph, fn, x)
}

func makeTuples(n, m int) []lattice.Tuple {
	out := make([]lattice.Tuple, n+1)
	for i := 1; i <= n; i++ {
		out[i] = make(lattice.Tuple, m)
	}
	return out
}

func snapshot(ts []lattice.Tuple) []lattice.Tuple {
	out := make([]lattice.Tuple, len(ts))
	for i, t := range ts {
		if t != nil {
			out[i] = t.Clone()
		}
	}
	return out
}

func reverseOrder(g *ir.Graph) []*ir.Node {
	// Reverse postorder of the reversed body DAG starting at the exit node:
	// the reverse of the forward RPO works because the body is a DAG and
	// edge reversal exactly inverts its topological orders.
	fwd := g.RPO()
	out := make([]*ir.Node, len(fwd))
	for i, n := range fwd {
		out[len(fwd)-1-i] = n
	}
	return out
}

// --- Reporting --------------------------------------------------------------

// TupleTable renders IN/OUT rows for every node, in the style of the paper's
// Table 1. Pass -1 renders the fixed point; pass 0 the initialization pass;
// pass k ≥ 1 the k-th iteration snapshot (requires CollectTrace).
func (res *Result) TupleTable(pass int) string {
	var in, out []lattice.Tuple
	switch {
	case pass < 0:
		in, out = res.In, res.Out
	case pass == 0:
		in, out = res.InitIn(), res.InitOut()
	default:
		if pass > len(res.Trace) {
			return fmt.Sprintf("<no trace for pass %d>", pass)
		}
		in, out = res.Trace[pass-1].In, res.Trace[pass-1].Out
	}
	if in == nil {
		return "<no snapshot>"
	}
	var b strings.Builder
	header := make([]string, len(res.Classes))
	for i, c := range res.Classes {
		header[i] = c.String()
	}
	fmt.Fprintf(&b, "%-8s tuples (%s)\n", "", strings.Join(header, ", "))
	// Rows are rendered straight into the builder (Tuple.WriteTo) rather
	// than through per-tuple Sprintf strings: on wide problems the rows
	// dominate the table's cost.
	for _, nd := range res.Graph.Nodes {
		fmt.Fprintf(&b, "IN [%d]  ", nd.ID)
		in[nd.ID].WriteTo(&b)
		b.WriteByte('\n')
		fmt.Fprintf(&b, "OUT[%d]  ", nd.ID)
		out[nd.ID].WriteTo(&b)
		b.WriteByte('\n')
	}
	return b.String()
}

// InAt returns the fixed point IN value of class c at node nd.
func (res *Result) InAt(nd *ir.Node, c *Class) lattice.Dist { return res.In[nd.ID][c.Index] }

// OutAt returns the fixed point OUT value of class c at node nd.
func (res *Result) OutAt(nd *ir.Node, c *Class) lattice.Dist { return res.Out[nd.ID][c.Index] }

// ClassFor finds the class tracking the given array and affine form, if
// any. The lookup is a single map access against a key index built once on
// first use — analyzers calling it once per finding no longer pay a scan
// over every class.
func (res *Result) ClassFor(array string, form sema.AffineForm) *Class {
	if res.ct == nil {
		return nil
	}
	return res.ct.lookup(array, form)
}

// Pr exposes pr(class, n) for result consumers (reuse queries need it).
func (res *Result) Pr(c *Class, nd *ir.Node) int64 { return res.prOf(c, nd) }
