package interp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/token"
)

// The map-based interpreter the dense one replaced, kept as a test oracle:
// state is a map of element-key maps, every identifier is a map lookup,
// and every access builds its subscript slice. FuzzInterp checks that both
// interpreters agree on every observable.

type refState struct {
	Scalars map[string]int64
	Arrays  map[string]map[string]int64
}

func newRefState() *refState {
	return &refState{Scalars: map[string]int64{}, Arrays: map[string]map[string]int64{}}
}

func refCloneCells(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (s *refState) clone() *refState {
	out := &refState{Scalars: refCloneCells(s.Scalars), Arrays: make(map[string]map[string]int64, len(s.Arrays))}
	for a, m := range s.Arrays {
		out.Arrays[a] = refCloneCells(m)
	}
	return out
}

func (s *refState) setArrayN(name string, idx []int64, v int64) {
	m := s.Arrays[name]
	if m == nil {
		m = map[string]int64{}
		s.Arrays[name] = m
	}
	m[elemKey(idx)] = v
}

func refDiffArrays(a, b *refState) string {
	var diffs []string
	names := map[string]bool{}
	for n := range a.Arrays {
		names[n] = true
	}
	for n := range b.Arrays {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		keys := map[string]bool{}
		for k := range a.Arrays[n] {
			keys[k] = true
		}
		for k := range b.Arrays[n] {
			keys[k] = true
		}
		sk := make([]string, 0, len(keys))
		for k := range keys {
			sk = append(sk, k)
		}
		sort.Strings(sk)
		for _, k := range sk {
			av, bv := a.Arrays[n][k], b.Arrays[n][k]
			if av != bv {
				diffs = append(diffs, fmt.Sprintf("%s[%s]: %d vs %d", n, k, av, bv))
				if len(diffs) >= 8 {
					return strings.Join(diffs, "; ") + "; ..."
				}
			}
		}
	}
	return strings.Join(diffs, "; ")
}

type refMachine struct {
	st    *refState
	stats *Stats
	steps int64
	max   int64
	opts  Options
}

func refRun(prog *ast.Program, init *refState, opts *Options) (*refState, *Stats, error) {
	if init == nil {
		init = newRefState()
	}
	maxSteps := int64(50_000_000)
	if opts != nil && opts.MaxSteps > 0 {
		maxSteps = opts.MaxSteps
	}
	m := &refMachine{
		st:    init.clone(),
		stats: &Stats{ArrayLoads: map[string]int64{}, ArrayStores: map[string]int64{}},
		max:   maxSteps,
	}
	if opts != nil {
		m.opts = *opts
	}
	err := m.execBlock(prog.Body)
	return m.st, m.stats, err
}

func (m *refMachine) step(pos token.Pos) error {
	m.steps++
	if m.steps > m.max {
		return &RuntimeError{Pos: pos, Msg: "step limit exceeded"}
	}
	return nil
}

func (m *refMachine) execBlock(body []ast.Stmt) error {
	for _, s := range body {
		if err := m.execStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (m *refMachine) execStmt(s ast.Stmt) error {
	switch st := s.(type) {
	case *ast.Assign:
		if err := m.step(st.Pos()); err != nil {
			return err
		}
		m.stats.Stmts++
		v, err := m.eval(st.RHS)
		if err != nil {
			return err
		}
		switch lhs := st.LHS.(type) {
		case *ast.Ident:
			m.st.Scalars[lhs.Name] = v
		case *ast.ArrayRef:
			idx, err := m.evalSubs(lhs)
			if err != nil {
				return err
			}
			if m.opts.TraceRef != nil {
				m.opts.TraceRef(lhs, true, idx)
			}
			m.st.setArrayN(lhs.Name, idx, v)
			m.stats.ArrayStores[lhs.Name]++
		default:
			return &RuntimeError{Pos: st.Pos(), Msg: "invalid assignment target"}
		}
		return nil

	case *ast.If:
		c, err := m.eval(st.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return m.execBlock(st.Then)
		}
		return m.execBlock(st.Else)

	case *ast.DoLoop:
		lo, err := m.eval(st.Lo)
		if err != nil {
			return err
		}
		hi, err := m.eval(st.Hi)
		if err != nil {
			return err
		}
		step := int64(1)
		if st.Step != nil {
			step, err = m.eval(st.Step)
			if err != nil {
				return err
			}
			if step == 0 {
				return &RuntimeError{Pos: st.Pos(), Msg: "zero loop step"}
			}
		}
		saved, had := m.st.Scalars[st.Var]
		runIter := func(i int64) error {
			if err := m.step(st.Pos()); err != nil {
				return err
			}
			m.stats.Iterations++
			if m.opts.LoopIter != nil {
				m.opts.LoopIter(st, i)
			}
			m.st.Scalars[st.Var] = i
			return m.execBlock(st.Body)
		}
		if m.opts.LoopOrder != nil {
			var iters []int64
			for i := lo; (step > 0 && i <= hi) || (step < 0 && i >= hi); i += step {
				iters = append(iters, i)
				if int64(len(iters)) > m.max {
					return &RuntimeError{Pos: st.Pos(), Msg: "step limit exceeded"}
				}
			}
			if order := m.opts.LoopOrder(st, iters); order != nil {
				iters = order
			}
			for _, i := range iters {
				if err := runIter(i); err != nil {
					return err
				}
			}
		} else {
			for i := lo; (step > 0 && i <= hi) || (step < 0 && i >= hi); i += step {
				if err := runIter(i); err != nil {
					return err
				}
			}
		}
		if m.opts.LoopDone != nil {
			m.opts.LoopDone(st)
		}
		if had {
			m.st.Scalars[st.Var] = saved
		} else {
			delete(m.st.Scalars, st.Var)
		}
		return nil

	case *ast.Dim:
		return nil
	}
	return &RuntimeError{Msg: "unknown statement"}
}

func (m *refMachine) evalSubs(ref *ast.ArrayRef) ([]int64, error) {
	idx := make([]int64, len(ref.Subs))
	for k, sub := range ref.Subs {
		v, err := m.eval(sub)
		if err != nil {
			return nil, err
		}
		idx[k] = v
	}
	return idx, nil
}

func (m *refMachine) eval(e ast.Expr) (int64, error) {
	switch ex := e.(type) {
	case *ast.IntLit:
		return ex.Value, nil
	case *ast.Ident:
		return m.st.Scalars[ex.Name], nil
	case *ast.ArrayRef:
		idx, err := m.evalSubs(ex)
		if err != nil {
			return 0, err
		}
		if m.opts.TraceRef != nil {
			m.opts.TraceRef(ex, false, idx)
		}
		m.stats.ArrayLoads[ex.Name]++
		return m.st.Arrays[ex.Name][elemKey(idx)], nil
	case *ast.Unary:
		v, err := m.eval(ex.X)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case token.MINUS:
			return -v, nil
		case token.NOT:
			return boolToInt(v == 0), nil
		}
		return 0, &RuntimeError{Pos: ex.Pos(), Msg: "bad unary operator"}
	case *ast.Binary:
		switch ex.Op {
		case token.AND:
			l, err := m.eval(ex.L)
			if err != nil || l == 0 {
				return 0, err
			}
			r, err := m.eval(ex.R)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		case token.OR:
			l, err := m.eval(ex.L)
			if err != nil {
				return 0, err
			}
			if l != 0 {
				return 1, nil
			}
			r, err := m.eval(ex.R)
			if err != nil {
				return 0, err
			}
			return boolToInt(r != 0), nil
		}
		l, err := m.eval(ex.L)
		if err != nil {
			return 0, err
		}
		r, err := m.eval(ex.R)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case token.PLUS:
			return l + r, nil
		case token.MINUS:
			return l - r, nil
		case token.STAR:
			return l * r, nil
		case token.SLASH:
			if r == 0 {
				return 0, &RuntimeError{Pos: ex.Pos(), Msg: "division by zero"}
			}
			return l / r, nil
		case token.MOD:
			if r == 0 {
				return 0, &RuntimeError{Pos: ex.Pos(), Msg: "modulo by zero"}
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
		return 0, &RuntimeError{Pos: ex.Pos(), Msg: "bad binary operator"}
	}
	return 0, &RuntimeError{Msg: "unknown expression"}
}
