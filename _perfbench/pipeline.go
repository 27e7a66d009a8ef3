package main

import (
	"bytes"
	"fmt"

	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/driver"
	"repro/internal/goimport"
	"repro/internal/ir"
	"repro/internal/lint"
	"repro/internal/parser"
	"repro/internal/poly"
	"repro/internal/rangefacts"
	"repro/internal/sema"
)

// vetOnce is the untraced vet op: what `arrayflow vet [-lang go]` does for
// one input, rendered as text.
func vetOnce(in Input, opts *lint.Options) ([]byte, *lint.VetResult) {
	var res *lint.VetResult
	if in.Go {
		res = goimport.VetSource(in.Name, []byte(in.Src), opts)
	} else {
		res = lint.Vet(in.Name, in.Src, opts)
	}
	return render(in.Name, res.Findings), res
}

// analyzeOnce is the untraced analyze op: what `arrayflow -program` does
// for one input.
func analyzeOnce(in Input) ([]byte, error) {
	norm, err := frontEnd(in.Src)
	if err != nil {
		return nil, err
	}
	pa, err := driver.Analyze(norm, &driver.Options{NestVectors: true})
	if err != nil {
		return nil, err
	}
	return []byte(pa.Report()), nil
}

// frontEnd parses, checks, and normalizes mini-language source.
func frontEnd(src string) (*ast.Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if _, errs := sema.CheckAll(prog); len(errs) > 0 {
		return nil, errs[0]
	}
	return sema.Normalize(prog)
}

// unitAnalysis is one analyzed program of a traced op, kept for the
// standalone apportioning calls that follow the op.
type unitAnalysis struct {
	file   string
	pa     *driver.ProgramAnalysis
	assume []rangefacts.Fact
}

// tracedOp is the outcome of one op run layer by layer.
type tracedOp struct {
	out      []byte
	findings []diag.Finding
	units    []unitAnalysis
}

// vetTraced runs the vet pipeline of vetOnce one layer at a time under
// parent, so each layer's time is a span. The rendered bytes must equal
// vetOnce's: that is what shows the decomposition does the same work.
func vetTraced(tr *tracer, parent int, in Input, opts *lint.Options) (*tracedOp, error) {
	if in.Go {
		return vetGoTraced(tr, parent, in, opts)
	}
	op := &tracedOp{}
	var prog, norm *ast.Program
	var err error
	tr.timed("parser.parse", parent, func() { prog, err = parser.Parse(in.Src) })
	if err != nil {
		return nil, err
	}
	tr.timed("sema.check", parent, func() {
		if _, errs := sema.CheckAll(prog); len(errs) > 0 {
			err = errs[0]
			return
		}
		norm, err = sema.Normalize(prog)
	})
	if err != nil {
		return nil, err
	}
	pa, findings, err := analyzeAndLint(tr, parent, in.Name, in.Src, norm, opts, nil)
	if err != nil {
		return nil, err
	}
	op.units = []unitAnalysis{{file: in.Name, pa: pa}}
	tr.timed("diag.render", parent, func() {
		diag.Sort(findings)
		findings = lint.ApplySuppressions(diag.Dedup(findings), norm.Directives)
		op.out = render(in.Name, findings)
	})
	op.findings = findings
	return op, nil
}

// vetGoTraced is vetTraced for Go source: the goimport front end, then per
// lowered unit the same analysis and lint layers goimport.VetSource runs.
func vetGoTraced(tr *tracer, parent int, in Input, opts *lint.Options) (*tracedOp, error) {
	op := &tracedOp{}
	var res *goimport.Result
	var err error
	tr.timed("goimport.lower", parent, func() { res, err = goimport.ImportSource(in.Name, []byte(in.Src)) })
	if err != nil {
		return nil, err
	}
	findings := res.Findings()
	for _, u := range res.Units() {
		var norm *ast.Program
		tr.timed("sema.check", parent, func() { norm, err = sema.Normalize(u.Program) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.File, err)
		}
		assume := append(append([]rangefacts.Fact(nil), opts.Assume...), goimport.LenFacts(u)...)
		pa, fs, err := analyzeAndLint(tr, parent, u.File, "", norm, opts, assume)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.File, err)
		}
		for i := range fs {
			fs[i].File = u.File
		}
		findings = append(findings, fs...)
		op.units = append(op.units, unitAnalysis{file: u.File, pa: pa, assume: assume})
	}
	tr.timed("diag.render", parent, func() {
		diag.Sort(findings)
		findings = diag.Dedup(findings)
		op.out = render(in.Name, findings)
	})
	op.findings = findings
	return op, nil
}

// analyzeAndLint is lint.Run split into its layers: driver.Analyze with
// the options lint.Run passes, then lint.RunOn once per analyzer.
func analyzeAndLint(tr *tracer, parent int, file, src string, norm *ast.Program, opts *lint.Options, assume []rangefacts.Fact) (*driver.ProgramAnalysis, []diag.Finding, error) {
	if assume == nil {
		assume = opts.Assume
	}
	var pa *driver.ProgramAnalysis
	var err error
	tr.timed("driver.analyze", parent, func() {
		pa, err = driver.Analyze(norm, &driver.Options{
			Specs:        lint.Specs(),
			Parallelism:  opts.Parallelism,
			DisableCache: opts.DisableCache,
			CacheDir:     opts.CacheDir,
			Engine:       opts.Engine,
			Fuel:         opts.Fuel,
			Assume:       assume,
		})
	})
	if err != nil {
		return nil, nil, err
	}
	var findings []diag.Finding
	for _, a := range lint.Analyzers() {
		o := *opts
		o.Src = src
		o.Analyzers = []string{a.ID}
		tr.timed("lint."+a.ID, parent, func() { findings = append(findings, lint.RunOn(file, pa, &o)...) })
	}
	return pa, findings, nil
}

func render(name string, findings []diag.Finding) []byte {
	var buf bytes.Buffer
	_ = diag.WriteText(&buf, name, findings) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// apportion makes the standalone calls that split two layers further: the
// static half of race certification (lint.CertifyLoop, whose complement in
// lint.race is the interpreter bridge), and the graph build and range-fact
// derivation inside driver.analyze. Certification applies to vet ops
// only. Each fans out over the loops the way the layer it apportions does.
func apportion(tr *tracer, units []unitAnalysis, parallelism int, certify bool) {
	if certify {
		id := tr.standalone("lint.race.static")
		for _, u := range units {
			pa := u.pa
			pa.ForEachLoop(parallelism, func(_ int, la *driver.LoopAnalysis) {
				lint.CertifyLoop(&lint.Context{File: u.file, Program: pa.Prog, Info: pa.Info, Loop: la})
			})
		}
		tr.end(id)
	}
	id := tr.standalone("ir.build")
	for _, u := range units {
		dims := declaredDims(u.pa.Info)
		u.pa.ForEachLoop(parallelism, func(_ int, la *driver.LoopAnalysis) {
			_, _ = ir.Build(la.Loop, &ir.Options{Dims: dims}) // driver.Analyze built it once already
		})
	}
	tr.end(id)
	id = tr.standalone("rangefacts.derive")
	for _, u := range units {
		pa := u.pa
		pa.ForEachLoop(parallelism, func(_ int, la *driver.LoopAnalysis) {
			rangefacts.Derive(pa.Prog, pa.Info, la.Loop, u.assume, 0)
		})
	}
	tr.end(id)
}

// declaredDims mirrors driver.Analyze's conversion of constant dim
// declarations into the polynomial sizes ir.Build linearizes with.
func declaredDims(info *sema.Info) map[string][]poly.Poly {
	if info == nil || len(info.Bounds) == 0 {
		return nil
	}
	out := make(map[string][]poly.Poly, len(info.Bounds))
	for name, sizes := range info.Bounds {
		ps := make([]poly.Poly, len(sizes))
		for k, v := range sizes {
			ps[k] = poly.Const(v)
		}
		out[name] = ps
	}
	return out
}

// analyzeTraced is analyzeOnce one layer at a time.
func analyzeTraced(tr *tracer, parent int, in Input) (*tracedOp, error) {
	var prog, norm *ast.Program
	var err error
	tr.timed("parser.parse", parent, func() { prog, err = parser.Parse(in.Src) })
	if err != nil {
		return nil, err
	}
	tr.timed("sema.check", parent, func() {
		if _, errs := sema.CheckAll(prog); len(errs) > 0 {
			err = errs[0]
			return
		}
		norm, err = sema.Normalize(prog)
	})
	if err != nil {
		return nil, err
	}
	var pa *driver.ProgramAnalysis
	tr.timed("driver.analyze", parent, func() { pa, err = driver.Analyze(norm, &driver.Options{NestVectors: true}) })
	if err != nil {
		return nil, err
	}
	op := &tracedOp{units: []unitAnalysis{{file: in.Name, pa: pa}}}
	tr.timed("diag.render", parent, func() { op.out = []byte(pa.Report()) })
	return op, nil
}
