package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/ast"
	"repro/internal/diag"
	"repro/internal/goimport"
	"repro/internal/lint"
	"repro/internal/sema"
)

// checkGoldens vets every examples/*.loop of the tree under root and
// compares the text, SARIF, and (where a golden exists) JSON renderings
// byte for byte with internal/lint/testdata. Missing files are an error;
// mismatches are returned as failures.
func checkGoldens(root string) (matched int, failures []string, err error) {
	paths, err := filepath.Glob(filepath.Join(root, "examples", "*.loop"))
	if err != nil {
		return 0, nil, err
	}
	if len(paths) == 0 {
		return 0, nil, errors.New("no examples/*.loop under " + root)
	}
	testdata := filepath.Join(root, "internal", "lint", "testdata")
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			return 0, nil, err
		}
		stem := strings.TrimSuffix(filepath.Base(path), ".loop")
		name := "examples/" + filepath.Base(path)
		res := lint.Vet(name, string(src), &lint.Options{})
		renders := []struct {
			golden string
			write  func(*bytes.Buffer) error
		}{
			{stem + ".golden", func(b *bytes.Buffer) error { return diag.WriteText(b, name, res.Findings) }},
			{stem + ".sarif.golden", func(b *bytes.Buffer) error { return diag.WriteSARIF(b, name, lint.RuleMetas(), res.Findings) }},
			{stem + ".json.golden", func(b *bytes.Buffer) error { return diag.WriteJSON(b, name, res.Findings) }},
		}
		ok := true
		for k, r := range renders {
			want, err := os.ReadFile(filepath.Join(testdata, r.golden))
			if k == 2 && errors.Is(err, os.ErrNotExist) {
				continue // only some examples have a JSON golden
			}
			if err != nil {
				return 0, nil, err
			}
			var got bytes.Buffer
			if err := r.write(&got); err != nil {
				return 0, nil, err
			}
			if !bytes.Equal(got.Bytes(), want) {
				ok = false
				failures = append(failures, "golden mismatch: "+r.golden)
			}
		}
		if ok {
			matched++
		}
	}
	return matched, failures, nil
}

// verdictMix counts race verdicts.
type verdictMix struct{ parallel, racy, unknown int }

func (v *verdictMix) add(o verdictMix) {
	v.parallel += o.parallel
	v.racy += o.racy
	v.unknown += o.unknown
}

func (v verdictMix) total() int { return v.parallel + v.racy + v.unknown }

// verdicts counts the race verdicts among findings.
func verdicts(fs []diag.Finding) verdictMix {
	var m verdictMix
	for _, f := range fs {
		if f.Analyzer != "race" || f.Severity == diag.Error {
			continue
		}
		switch f.Detail["verdict"] {
		case "parallel":
			m.parallel++
		case "racy":
			m.racy++
		case "unknown":
			m.unknown++
		}
	}
	return m
}

// programsOf returns the checked, normalized programs the analyzers see
// for an input: the program itself, or every lowered unit of a Go file.
func programsOf(in Input) ([]*ast.Program, error) {
	if !in.Go {
		norm, err := frontEnd(in.Src)
		if err != nil {
			return nil, err
		}
		return []*ast.Program{norm}, nil
	}
	res, err := goimport.ImportSource(in.Name, []byte(in.Src))
	if err != nil {
		return nil, err
	}
	var out []*ast.Program
	for _, u := range res.Units() {
		norm, err := sema.Normalize(u.Program)
		if err != nil {
			return nil, err
		}
		out = append(out, norm)
	}
	return out, nil
}

// verifyVet is the per-input half of the correctness gate: the analysis
// must have run, no race or selfcheck finding may be an error (a bridge
// failure or an inconsistency), and every parallel or racy verdict must
// agree with what the interpreter oracle observed.
func verifyVet(in Input, res *lint.VetResult) (verdictMix, error) {
	if res.FrontEndFailed {
		return verdictMix{}, fmt.Errorf("%s: front end failed", in.Name)
	}
	progs, err := programsOf(in)
	if err != nil {
		return verdictMix{}, fmt.Errorf("%s: %w", in.Name, err)
	}
	conflict := map[string]bool{}
	executed := map[string]bool{}
	for _, p := range progs {
		obs, err := observe(p, nil)
		if err != nil {
			return verdictMix{}, fmt.Errorf("%s: %w", in.Name, err)
		}
		for pos, c := range obs.Conflict {
			conflict[pos.String()] = c
			executed[pos.String()] = true
		}
	}
	for _, f := range res.Findings {
		if (f.Analyzer == "race" || f.Analyzer == "selfcheck") && f.Severity == diag.Error {
			return verdictMix{}, fmt.Errorf("%s: error finding: %s", in.Name, f)
		}
		if f.Analyzer != "race" {
			continue
		}
		pos := f.Pos.String()
		switch v := f.Detail["verdict"]; v {
		case "parallel", "racy":
			if !executed[pos] {
				return verdictMix{}, fmt.Errorf("%s: %s verdict on a loop the oracle never ran: %s", in.Name, v, f)
			}
			if conflict[pos] != (v == "racy") {
				return verdictMix{}, fmt.Errorf("%s: oracle disagrees (conflict=%v): %s", in.Name, conflict[pos], f)
			}
		}
	}
	return verdicts(res.Findings), nil
}
