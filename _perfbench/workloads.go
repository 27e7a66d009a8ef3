package main

import (
	"bytes"
	"fmt"

	"repro/internal/driver"
	"repro/internal/lint"
)

// shape describes a workload's traffic, printed so the mix is verified
// rather than assumed.
type shape struct {
	programs, goPrograms int
	loops, stmts         int
	verdicts             verdictMix
	reuseChecks          int
}

func (s shape) String() string {
	out := fmt.Sprintf("programs %d (Go %d, %.0f%%), loops %d, statements %d",
		s.programs, s.goPrograms, 100*float64(s.goPrograms)/float64(max(s.programs, 1)), s.loops, s.stmts)
	if s.verdicts.total() > 0 {
		out += fmt.Sprintf(", verdicts parallel %d / racy %d / unknown %d", s.verdicts.parallel, s.verdicts.racy, s.verdicts.unknown)
	}
	if s.reuseChecks > 0 {
		out += fmt.Sprintf(", reuse claims confirmed %d times", s.reuseChecks)
	}
	return out
}

func (s *shape) count(in Input) {
	s.programs++
	if in.Go {
		s.goPrograms++
	}
	s.loops += in.Loops
	s.stmts += in.Stmts
}

// counters accumulates per-op counts over the traced ops.
type counters map[string]float64

// addAnalysis adds one op's driver and verdict counts.
func (c counters) addAnalysis(units []unitAnalysis, v verdictMix) {
	for _, u := range units {
		m := u.pa.Metrics
		c["driver.solves"] += float64(m.Solves)
		c["driver.memo_hits"] += float64(m.CacheHits)
		c["dataflow.node_visits"] += float64(m.NodeVisits)
		c["dataflow.flow_apps"] += float64(m.FlowApps)
		if p := float64(m.MaxChangedPasses); p > c["dataflow.max_changed_passes"] {
			c["dataflow.max_changed_passes"] = p
		}
	}
	c["lint.verdicts.parallel"] += float64(v.parallel)
	c["lint.verdicts.racy"] += float64(v.racy)
	c["lint.verdicts.unknown"] += float64(v.unknown)
}

// addDisk adds the persistent-cache counter deltas between two snapshots.
func (c counters) addDisk(before, after driver.DiskStats) {
	c["driver.disk_hits"] += float64(after.Hits - before.Hits)
	c["driver.disk_misses"] += float64(after.Misses - before.Misses)
	c["driver.disk_stores"] += float64(after.Stores - before.Stores)
	c["driver.disk_errors"] += float64(after.Errors - before.Errors)
	c["driver.disk_load_ms"] += float64(after.LoadNS-before.LoadNS) / 1e6
	c["driver.disk_store_ms"] += float64(after.StoreNS-before.StoreNS) / 1e6
}

// workload is one named traffic mix.
type workload interface {
	// setup generates the inputs from seed, verifies each output, and fills
	// caches; it returns the traffic shape.
	setup(seed int64) (shape, error)
	// op runs the k-th input untraced and returns its cost; seq is unique
	// across the run. The error reports a failed or wrong op.
	op(k, seq int) (cost, error)
	// traced runs the same op layer by layer under tr, adding its counts.
	traced(tr *tracer, k, seq int, c counters) error
	close()
}

func checkBytes(name string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: output differs from the output verified at setup", name)
	}
	return nil
}

// vetCold is `arrayflow vet` on a fresh process per input: the memo cache
// is reset before every op.
type vetCold struct {
	inputs []Input
	want   [][]byte
	opts   lint.Options
}

func (w *vetCold) setup(seed int64) (shape, error) {
	var sh shape
	w.inputs = vetColdInputs(seed)
	w.want = make([][]byte, len(w.inputs))
	for i, in := range w.inputs {
		driver.ResetCache()
		out, res := vetOnce(in, &w.opts)
		v, err := verifyVet(in, res)
		if err != nil {
			return sh, err
		}
		w.want[i] = out
		sh.count(in)
		sh.verdicts.add(v)
	}
	return sh, nil
}

func (w *vetCold) op(k, _ int) (cost, error) {
	in := w.inputs[k%len(w.inputs)]
	driver.ResetCache()
	sw := startWatch()
	out, _ := vetOnce(in, &w.opts)
	d := sw.stop()
	return d, checkBytes(in.Name, out, w.want[k%len(w.inputs)])
}

func (w *vetCold) traced(tr *tracer, k, _ int, c counters) error {
	in := w.inputs[k%len(w.inputs)]
	driver.ResetCache()
	root := tr.begin("op", 0)
	top, err := vetTraced(tr, root, in, &w.opts)
	tr.end(root)
	if err != nil {
		return err
	}
	apportion(tr, top.units, w.opts.Parallelism, true)
	c.addAnalysis(top.units, verdicts(top.findings))
	return checkBytes(in.Name, top.out, w.want[k%len(w.inputs)])
}

func (w *vetCold) close() {}

// analyzeLarge is `arrayflow -program` on a few large programs, cold.
type analyzeLarge struct {
	inputs []Input
	want   [][]byte
}

// analyzeLargePool is the number of large programs per seed. Ops cycle
// through them, so each holds a fifth of the ops, sizes 32, 40, 48, 56
// and 64 loops in cost order: the median op falls in the middle of the
// third program's share and the 90th percentile in the middle of the
// fifth's, never on the edge between two programs, where it would jump
// between their costs from run to run.
const analyzeLargePool = 5

func (w *analyzeLarge) setup(seed int64) (shape, error) {
	var sh shape
	w.inputs = analyzeLargeInputs(seed, analyzeLargePool)
	w.want = make([][]byte, len(w.inputs))
	for i, in := range w.inputs {
		norm, err := frontEnd(in.Src)
		if err != nil {
			return sh, fmt.Errorf("%s: %w", in.Name, err)
		}
		// The oracle needs the analysis of this very AST, so the memo cache
		// (which may answer with a structurally equal twin) stays off.
		ref, err := driver.Analyze(norm, &driver.Options{NestVectors: true, DisableCache: true})
		if err != nil {
			return sh, fmt.Errorf("%s: %w", in.Name, err)
		}
		obs, err := observe(norm, reuseClaims(ref))
		if err != nil {
			return sh, fmt.Errorf("%s: %w", in.Name, err)
		}
		if obs.ReuseErr != nil {
			return sh, fmt.Errorf("%s: %w", in.Name, obs.ReuseErr)
		}
		driver.ResetCache()
		out, err := analyzeOnce(in)
		if err != nil {
			return sh, fmt.Errorf("%s: %w", in.Name, err)
		}
		if err := checkBytes(in.Name+" (cached vs uncached)", out, []byte(ref.Report())); err != nil {
			return sh, err
		}
		w.want[i] = out
		sh.count(in)
		sh.reuseChecks += obs.ReuseChecks
	}
	if sh.reuseChecks == 0 {
		return sh, fmt.Errorf("analyze-large: no reuse claim was exercised")
	}
	return sh, nil
}

func (w *analyzeLarge) op(k, _ int) (cost, error) {
	in := w.inputs[k%len(w.inputs)]
	driver.ResetCache()
	sw := startWatch()
	out, err := analyzeOnce(in)
	d := sw.stop()
	if err != nil {
		return d, err
	}
	return d, checkBytes(in.Name, out, w.want[k%len(w.inputs)])
}

func (w *analyzeLarge) traced(tr *tracer, k, _ int, c counters) error {
	in := w.inputs[k%len(w.inputs)]
	driver.ResetCache()
	root := tr.begin("op", 0)
	top, err := analyzeTraced(tr, root, in)
	tr.end(root)
	if err != nil {
		return err
	}
	apportion(tr, top.units, 0, false)
	c.addAnalysis(top.units, verdictMix{})
	return checkBytes(in.Name, top.out, w.want[k%len(w.inputs)])
}

func (w *analyzeLarge) close() {}
