// Package interp is a reference interpreter for the loop mini-language.
//
// It serves as the semantic oracle of this reproduction: every optimization
// (register pipelining, load/store elimination, unrolling, peeling) is
// validated by running the original and the transformed program on the same
// inputs and comparing final memory states. The interpreter also counts
// source-level array loads and stores, giving an architecture-independent
// measure of the memory traffic the optimizations remove.
//
// Execution runs on dense, name-resolved state. Compile walks the program
// once and resolves every scalar and array name to a slot (Run compiles
// per call; a caller running one program many times compiles it once), so
// statements read scalars from a []int64 and count loads and stores per slot, and
// subscripts are evaluated into one reused buffer, so an element access
// neither allocates nor hashes a name. Each array is a row-major []int64
// box with a low bound and extent per dimension: the box at least doubles
// on a store outside it, and a read outside it returns 0, so a missing
// element reads as zero. A store whose grown box would be far larger than the elements in
// use goes to a small sparse overflow instead, which keeps memory bounded
// by what the program holds however far apart its subscripts are.
package interp

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/token"
)

// Stats counts dynamic events during execution.
type Stats struct {
	// ArrayLoads / ArrayStores count element reads and writes per array.
	ArrayLoads  map[string]int64
	ArrayStores map[string]int64
	// Stmts counts executed assignments; Iterations counts loop-iteration
	// entries across all loops.
	Stmts      int64
	Iterations int64
}

// TotalLoads sums loads across arrays.
func (st *Stats) TotalLoads() int64 {
	var n int64
	for _, v := range st.ArrayLoads {
		n += v
	}
	return n
}

// TotalStores sums stores across arrays.
func (st *Stats) TotalStores() int64 {
	var n int64
	for _, v := range st.ArrayStores {
		n += v
	}
	return n
}

// RuntimeError is an execution error with position.
type RuntimeError struct {
	Pos token.Pos
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("%s: runtime: %s", e.Pos, e.Msg) }

// Options bounds execution and exposes the instrumentation hooks the
// certifying analyzers use (witness replay and parallel permutation checks
// in internal/lint).
type Options struct {
	// MaxSteps caps executed assignments+iterations (default 50 million).
	MaxSteps int64
	// TraceRef, when set, observes every array element access: the
	// syntactic reference being executed, whether it is a store, and the
	// concrete subscript tuple. idx is the interpreter's reused subscript
	// buffer: the hook must neither mutate nor retain it (copy it to keep
	// it).
	TraceRef func(ref *ast.ArrayRef, isStore bool, idx []int64)
	// LoopIter, when set, observes the start of every loop iteration with
	// the loop being run and the induction value for the iteration.
	LoopIter func(loop *ast.DoLoop, iter int64)
	// LoopDone, when set, observes a loop finishing (after its last
	// iteration, before the induction variable is restored).
	LoopDone func(loop *ast.DoLoop)
	// LoopOrder, when set, may permute a loop's iteration schedule: it
	// receives the loop and the natural induction-value sequence and
	// returns the order to execute (nil keeps the natural order). The
	// parallel permutation check runs provably-parallel loops through a
	// shuffled order and compares final memories.
	LoopOrder func(loop *ast.DoLoop, iters []int64) []int64
	// ShareInit skips the deep copy of init: the run copies an array on
	// its first store to it, and the returned state shares every array
	// the run never stored to with init. The caller must then treat init
	// and the returned state as read-only. The certification runs, which
	// start many runs from one seeded state, set it.
	ShareInit bool
}

type machine struct {
	// Scalar slots: value and whether the name is bound (an unbound
	// scalar reads as zero and is absent from the returned Scalars).
	sc    []int64
	bound []bool
	// Array slots. owned[k] reports that arrs[k] is private to this run
	// (nil arrays are never owned).
	arrs  []*array
	owned []bool
	// Per-slot access counts, and the other Stats counters.
	loads, stores     []int64
	stmts, iterations int64
	// buf is the subscript stack: a reference's subscripts are evaluated
	// onto its top and popped after the access.
	buf   []int64
	steps int64
	max   int64
	opts  Options
}

// Compiled is a program with every scalar and array name resolved to a
// slot. It is never mutated, so any number of runs, concurrent ones
// included, may share it.
type Compiled struct {
	body                    []stmt
	scalarNames, arrayNames []string
}

// Compile resolves the program's names by walking it once.
func Compile(prog *ast.Program) *Compiled {
	c := &compiler{scalars: map[string]int{}, arrays: map[string]int{}}
	body := c.block(prog.Body)
	return &Compiled{body: body, scalarNames: c.scalarNames, arrayNames: c.arrayNames}
}

// Run executes the program on a copy of init (nil = empty) and returns the
// final state and statistics.
func Run(prog *ast.Program, init *State, opts *Options) (*State, *Stats, error) {
	return Compile(prog).Run(init, opts)
}

// Run executes the compiled program as the package-level Run does.
func (c *Compiled) Run(init *State, opts *Options) (*State, *Stats, error) {
	if init == nil {
		init = NewState()
	}
	maxSteps := int64(50_000_000)
	if opts != nil && opts.MaxSteps > 0 {
		maxSteps = opts.MaxSteps
	}
	m := &machine{
		sc:     make([]int64, len(c.scalarNames)),
		bound:  make([]bool, len(c.scalarNames)),
		arrs:   make([]*array, len(c.arrayNames)),
		owned:  make([]bool, len(c.arrayNames)),
		loads:  make([]int64, len(c.arrayNames)),
		stores: make([]int64, len(c.arrayNames)),
		max:    maxSteps,
	}
	if opts != nil {
		m.opts = *opts
	}
	base := &State{Scalars: cloneScalars(init.Scalars), arrays: make(map[string]*array, len(init.arrays)+len(c.arrayNames))}
	for n, a := range init.arrays {
		if !m.opts.ShareInit {
			a = a.clone()
		}
		base.arrays[n] = a
	}
	for k, n := range c.scalarNames {
		m.sc[k], m.bound[k] = base.Scalars[n]
	}
	for k, n := range c.arrayNames {
		m.arrs[k] = base.arrays[n]
		m.owned[k] = !m.opts.ShareInit && m.arrs[k] != nil
	}
	err := m.execBlock(c.body)

	// Write the slots back into the names' maps.
	for k, n := range c.scalarNames {
		if m.bound[k] {
			base.Scalars[n] = m.sc[k]
		} else {
			delete(base.Scalars, n)
		}
	}
	stats := &Stats{ArrayLoads: map[string]int64{}, ArrayStores: map[string]int64{}, Stmts: m.stmts, Iterations: m.iterations}
	for k, n := range c.arrayNames {
		if m.arrs[k] != nil {
			base.arrays[n] = m.arrs[k]
		}
		if m.loads[k] > 0 {
			stats.ArrayLoads[n] = m.loads[k]
		}
		if m.stores[k] > 0 {
			stats.ArrayStores[n] = m.stores[k]
		}
	}
	return base, stats, err
}

// ---------------------------------------------------------------------------
// Name resolution: the program compiled to a tree of slot-addressed nodes.
// Nodes keep their AST node for hooks and error positions, and an AST
// construct the interpreter cannot run compiles to a node that fails only
// when executed, as the AST walk it replaces did.

type exprKind uint8

const (
	exLit    exprKind = iota
	exScalar          // slot
	exLoad            // array slot, subs
	exUnary           // op, x
	exBinary          // op, x, y
	exBad             // unknown expression
)

type expr struct {
	kind exprKind
	op   token.Kind
	val  int64 // literal value (exLit)
	slot int   // scalar (exScalar) or array (exLoad) slot
	x, y *expr
	subs []*expr
	node ast.Expr
}

type stmtKind uint8

const (
	stAssign   stmtKind = iota // scalar slot := rhs
	stStore                    // array slot[subs] := rhs
	stBadStore                 // invalid assignment target
	stIf
	stLoop
	stNop // dim
	stBad // unknown statement
)

type stmt struct {
	kind   stmtKind
	slot   int // assigned scalar, stored array, or induction variable
	subs   []*expr
	rhs    *expr // assigned value, or the if condition
	lo, hi *expr
	step   *expr // nil means 1
	body   []stmt
	els    []stmt
	node   ast.Stmt
}

type compiler struct {
	scalars, arrays         map[string]int
	scalarNames, arrayNames []string
	slab                    []expr
}

func (c *compiler) scalar(name string) int {
	k, ok := c.scalars[name]
	if !ok {
		k = len(c.scalarNames)
		c.scalars[name] = k
		c.scalarNames = append(c.scalarNames, name)
	}
	return k
}

func (c *compiler) array(name string) int {
	k, ok := c.arrays[name]
	if !ok {
		k = len(c.arrayNames)
		c.arrays[name] = k
		c.arrayNames = append(c.arrayNames, name)
	}
	return k
}

func (c *compiler) block(body []ast.Stmt) []stmt {
	if len(body) == 0 {
		return nil
	}
	out := make([]stmt, len(body))
	for i, s := range body {
		c.stmt(&out[i], s)
	}
	return out
}

func (c *compiler) stmt(out *stmt, s ast.Stmt) {
	out.node = s
	switch st := s.(type) {
	case *ast.Assign:
		out.rhs = c.expr(st.RHS)
		switch lhs := st.LHS.(type) {
		case *ast.Ident:
			out.kind, out.slot = stAssign, c.scalar(lhs.Name)
		case *ast.ArrayRef:
			out.kind, out.slot, out.subs = stStore, c.array(lhs.Name), c.exprs(lhs.Subs)
		default:
			out.kind = stBadStore
		}
	case *ast.If:
		out.kind, out.rhs = stIf, c.expr(st.Cond)
		out.body, out.els = c.block(st.Then), c.block(st.Else)
	case *ast.DoLoop:
		out.kind, out.slot = stLoop, c.scalar(st.Var)
		out.lo, out.hi = c.expr(st.Lo), c.expr(st.Hi)
		if st.Step != nil {
			out.step = c.expr(st.Step)
		}
		out.body = c.block(st.Body)
	case *ast.Dim:
		// Declarations have no runtime effect: an array's box grows on
		// demand from the stores the program makes.
		out.kind = stNop
	default:
		out.kind = stBad
	}
}

func (c *compiler) exprs(es []ast.Expr) []*expr {
	out := make([]*expr, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

func (c *compiler) expr(e ast.Expr) *expr {
	// Nodes come from slabs that are never reallocated, so pointers into
	// them stay valid.
	if len(c.slab) == cap(c.slab) {
		c.slab = make([]expr, 0, 64)
	}
	c.slab = append(c.slab, expr{node: e})
	out := &c.slab[len(c.slab)-1]
	switch ex := e.(type) {
	case *ast.IntLit:
		out.kind, out.val = exLit, ex.Value
	case *ast.Ident:
		out.kind, out.slot = exScalar, c.scalar(ex.Name)
	case *ast.ArrayRef:
		out.kind, out.slot = exLoad, c.array(ex.Name)
		out.subs = c.exprs(ex.Subs)
	case *ast.Unary:
		out.kind, out.op, out.x = exUnary, ex.Op, c.expr(ex.X)
	case *ast.Binary:
		out.kind, out.op = exBinary, ex.Op
		out.x, out.y = c.expr(ex.L), c.expr(ex.R)
	default:
		out.kind = exBad
	}
	return out
}

// ---------------------------------------------------------------------------
// Execution

func (m *machine) step(at ast.Node) error {
	m.steps++
	if m.steps > m.max {
		return &RuntimeError{Pos: at.Pos(), Msg: "step limit exceeded"}
	}
	return nil
}

func (m *machine) execBlock(body []stmt) error {
	for i := range body {
		if err := m.execStmt(&body[i]); err != nil {
			return err
		}
	}
	return nil
}

func (m *machine) execStmt(s *stmt) error {
	switch s.kind {
	case stAssign, stStore, stBadStore:
		if err := m.step(s.node); err != nil {
			return err
		}
		m.stmts++
		v, err := m.eval(s.rhs)
		if err != nil {
			return err
		}
		switch s.kind {
		case stAssign:
			m.sc[s.slot], m.bound[s.slot] = v, true
		case stStore:
			top := len(m.buf)
			idx, err := m.evalSubs(s.subs)
			if err != nil {
				return err
			}
			if m.opts.TraceRef != nil {
				m.opts.TraceRef(s.node.(*ast.Assign).LHS.(*ast.ArrayRef), true, idx)
			}
			a := m.arrs[s.slot]
			if !m.owned[s.slot] {
				if a == nil {
					a = &array{}
				} else {
					a = a.clone()
				}
				m.arrs[s.slot], m.owned[s.slot] = a, true
			}
			a.set(idx, v)
			m.stores[s.slot]++
			m.buf = m.buf[:top]
		default:
			return &RuntimeError{Pos: s.node.Pos(), Msg: "invalid assignment target"}
		}
		return nil

	case stIf:
		c, err := m.eval(s.rhs)
		if err != nil {
			return err
		}
		if c != 0 {
			return m.execBlock(s.body)
		}
		return m.execBlock(s.els)

	case stLoop:
		return m.execLoop(s)

	case stNop:
		return nil
	}
	return &RuntimeError{Msg: "unknown statement"}
}

func (m *machine) execLoop(s *stmt) error {
	loop := s.node.(*ast.DoLoop)
	lo, err := m.eval(s.lo)
	if err != nil {
		return err
	}
	hi, err := m.eval(s.hi)
	if err != nil {
		return err
	}
	step := int64(1)
	if s.step != nil {
		step, err = m.eval(s.step)
		if err != nil {
			return err
		}
		if step == 0 {
			return &RuntimeError{Pos: loop.Pos(), Msg: "zero loop step"}
		}
	}
	saved, had := m.sc[s.slot], m.bound[s.slot]
	if m.opts.LoopOrder != nil {
		// Materialize the natural schedule and let the hook permute it.
		// The schedule length is already bounded by the step budget.
		var iters []int64
		for i := lo; (step > 0 && i <= hi) || (step < 0 && i >= hi); i += step {
			iters = append(iters, i)
			if int64(len(iters)) > m.max {
				return &RuntimeError{Pos: loop.Pos(), Msg: "step limit exceeded"}
			}
		}
		if order := m.opts.LoopOrder(loop, iters); order != nil {
			iters = order
		}
		for _, i := range iters {
			if err := m.iter(s, loop, i); err != nil {
				return err
			}
		}
	} else {
		for i := lo; (step > 0 && i <= hi) || (step < 0 && i >= hi); i += step {
			if err := m.iter(s, loop, i); err != nil {
				return err
			}
		}
	}
	if m.opts.LoopDone != nil {
		m.opts.LoopDone(loop)
	}
	// Restore the induction variable so programs after the loop see the
	// pre-loop binding (the language gives it loop-local scope).
	m.sc[s.slot], m.bound[s.slot] = saved, had
	return nil
}

func (m *machine) iter(s *stmt, loop *ast.DoLoop, i int64) error {
	if err := m.step(loop); err != nil {
		return err
	}
	m.iterations++
	if m.opts.LoopIter != nil {
		m.opts.LoopIter(loop, i)
	}
	m.sc[s.slot], m.bound[s.slot] = i, true
	return m.execBlock(s.body)
}

// evalSubs pushes the subscript values onto the buffer and returns them;
// the caller pops them once the access is done. A nested reference pushes
// above them and pops before they are read.
func (m *machine) evalSubs(subs []*expr) ([]int64, error) {
	top := len(m.buf)
	for _, sub := range subs {
		v, err := m.eval(sub)
		if err != nil {
			return nil, err
		}
		m.buf = append(m.buf, v)
	}
	return m.buf[top:len(m.buf):len(m.buf)], nil
}

func (m *machine) eval(e *expr) (int64, error) {
	switch e.kind {
	case exLit:
		return e.val, nil
	case exScalar:
		return m.sc[e.slot], nil
	case exLoad:
		top := len(m.buf)
		idx, err := m.evalSubs(e.subs)
		if err != nil {
			return 0, err
		}
		if m.opts.TraceRef != nil {
			m.opts.TraceRef(e.node.(*ast.ArrayRef), false, idx)
		}
		m.loads[e.slot]++
		v := m.arrs[e.slot].get(idx)
		m.buf = m.buf[:top]
		return v, nil
	case exUnary:
		v, err := m.eval(e.x)
		if err != nil {
			return 0, err
		}
		switch e.op {
		case token.MINUS:
			return -v, nil
		case token.NOT:
			return boolToInt(v == 0), nil
		}
		return 0, &RuntimeError{Pos: e.node.Pos(), Msg: "bad unary operator"}
	case exBinary:
		return m.binary(e)
	}
	return 0, &RuntimeError{Msg: "unknown expression"}
}

func (m *machine) binary(e *expr) (int64, error) {
	// Short-circuit boolean operators.
	switch e.op {
	case token.AND:
		l, err := m.eval(e.x)
		if err != nil || l == 0 {
			return 0, err
		}
		r, err := m.eval(e.y)
		if err != nil {
			return 0, err
		}
		return boolToInt(r != 0), nil
	case token.OR:
		l, err := m.eval(e.x)
		if err != nil {
			return 0, err
		}
		if l != 0 {
			return 1, nil
		}
		r, err := m.eval(e.y)
		if err != nil {
			return 0, err
		}
		return boolToInt(r != 0), nil
	}
	l, err := m.eval(e.x)
	if err != nil {
		return 0, err
	}
	r, err := m.eval(e.y)
	if err != nil {
		return 0, err
	}
	switch e.op {
	case token.PLUS:
		return l + r, nil
	case token.MINUS:
		return l - r, nil
	case token.STAR:
		return l * r, nil
	case token.SLASH:
		if r == 0 {
			return 0, &RuntimeError{Pos: e.node.Pos(), Msg: "division by zero"}
		}
		return l / r, nil
	case token.MOD:
		if r == 0 {
			return 0, &RuntimeError{Pos: e.node.Pos(), Msg: "modulo by zero"}
		}
		return l % r, nil
	case token.EQ:
		return boolToInt(l == r), nil
	case token.NEQ:
		return boolToInt(l != r), nil
	case token.LT:
		return boolToInt(l < r), nil
	case token.LEQ:
		return boolToInt(l <= r), nil
	case token.GT:
		return boolToInt(l > r), nil
	case token.GEQ:
		return boolToInt(l >= r), nil
	}
	return 0, &RuntimeError{Pos: e.node.Pos(), Msg: "bad binary operator"}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
