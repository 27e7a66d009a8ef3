// Command perfbench is arrayflow's end-to-end benchmark. It generates a
// workload's inputs from a seed, checks every output, runs one closed-loop
// client for a fixed time, and prints the metrics as one JSON line:
//
//	go build -o perfbench . && ./perfbench -root .. -workload vet-cold -seed 1 -seconds 10 -trace 0
//
// With -trace 1 it runs the same ops layer by layer, keeps a span per
// layer call, writes the spans to -trace-out, and reports per-layer
// metrics instead. README.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median of
// their CPU times.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload: vet-cold, analyze-large, or serve-warm")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 10, "seconds of measured ops")
	trace := flag.Int("trace", 0, "1 runs the ops layer by layer and reports per-layer metrics")
	root := flag.String("root", ".", "root of the arrayflow source tree (goldens and examples are read from it)")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default .bench_build/perfbench/trace-<workload>-<seed>.jsonl under -root)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	work := filepath.Join(*root, ".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid()))
	if *traceOut == "" {
		*traceOut = filepath.Join(*root, ".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.jsonl", *workloadName, *seed))
	}
	res, err := run(*workloadName, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root, work, *traceOut)
	os.RemoveAll(work)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func newWorkload(name, work string, rep int) (workload, error) {
	switch name {
	case "vet-cold":
		return &vetCold{}, nil
	case "analyze-large":
		return &analyzeLarge{}, nil
	case "serve-warm":
		return &serveWarm{dir: filepath.Join(work, fmt.Sprintf("cache-%d", rep))}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want vet-cold, analyze-large, or serve-warm)", name)
}

// run sets the workload up setupReps times, keeps the last set-up, and
// measures for d. Errors are failures to run at all (missing tree, a
// workload that cannot be set up); wrong outputs are reported in the
// result instead.
func run(name string, seed int64, d time.Duration, traced bool, root, work, traceOut string) (*result, error) {
	var (
		w        workload
		sh       shape
		setups   []cost
		failures []string
	)
	for rep := 0; rep < setupReps; rep++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, work, rep); err != nil {
			return nil, err
		}
		sw := startWatch()
		matched, gf, err := checkGoldens(root)
		if err != nil {
			return nil, err
		}
		if sh, err = w.setup(seed); err != nil {
			w.close()
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, sw.stop())
		failures = append(failures, gf...)
		if rep == 0 {
			fmt.Printf("%s seed %d: goldens matched %d examples (%d mismatches)\n", name, seed, matched, len(gf))
			fmt.Printf("%s seed %d: %s\n", name, seed, sh)
		}
	}
	defer w.close()

	res := &result{Metrics: map[string]metric{}}
	var err error
	if traced {
		err = measureTraced(w, name, seed, d, res, traceOut)
	} else {
		var cpu, wall []float64
		for _, c := range setups {
			cpu, wall = append(cpu, c.cpu.Seconds()), append(wall, c.wall.Seconds())
		}
		fmt.Printf("%s seed %d: set-up median %.3f s CPU, %.3f s wall\n", name, seed, median(cpu), median(wall))
		err = measure(w, name, seed, d, median(cpu), res)
	}
	if err != nil {
		return nil, err
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: gate:", f)
	}
	res.Correct = len(failures) == 0 && res.Failed == 0
	return res, nil
}

// loop runs ops back to back for d (one closed-loop client) and returns
// the cost of every op that succeeded.
func loop(d time.Duration, op func(k, seq int) (cost, error)) (costs []cost, attempted, failed int) {
	t0 := time.Now()
	for k := 0; time.Since(t0) < d; k++ {
		c, err := op(k, k)
		attempted++
		if err != nil {
			failed++
			if failed <= 5 {
				fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
			}
			continue
		}
		costs = append(costs, c)
	}
	return costs, attempted, failed
}

func measure(w workload, name string, seed int64, d time.Duration, setup float64, res *result) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sw := startWatch()
	costs, attempted, failed := loop(d, w.op)
	total := sw.stop()
	runtime.ReadMemStats(&m1)
	res.Attempted, res.Failed = attempted, failed
	if len(costs) == 0 {
		return fmt.Errorf("%s: no op succeeded", name)
	}
	var cpu, wall []float64
	for _, c := range costs {
		cpu, wall = append(cpu, float64(c.cpu)/1e6), append(wall, float64(c.wall)/1e6)
	}
	sort.Float64s(cpu)
	sort.Float64s(wall)
	rss, err := peakRSS()
	if err != nil {
		return err
	}
	add := func(k string, v float64, unit string) { res.Metrics[k] = metric{v, unit} }
	add("cpu_p50_ms", quantile(cpu, 0.5), "ms")
	add("cpu_p90_ms", quantile(cpu, 0.9), "ms")
	add("ops_per_cpu_s", float64(len(costs))/total.cpu.Seconds(), "1/s")
	add("alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(attempted), "MB")
	add("peak_rss_mb", rss, "MB")
	add("setup_s", setup, "s")
	fmt.Printf("%s seed %d: %d ops (%d failed), %d samples beyond p90; CPU p50 %.3f ms, p90 %.3f ms; wall p50 %.3f ms, p90 %.3f ms, %.1f ops/s (%.0f%% of the run's wall time on CPU)\n",
		name, seed, attempted, failed, len(cpu)-int(math.Ceil(0.9*float64(len(cpu)))),
		quantile(cpu, 0.5), quantile(cpu, 0.9), quantile(wall, 0.5), quantile(wall, 0.9),
		float64(len(costs))/total.wall.Seconds(), 100*total.cpu.Seconds()/total.wall.Seconds())
	return nil
}

// pipelineLayers are the spans an untraced op's time divides into.
var pipelineLayers = []string{"parser.parse", "sema.check", "goimport.lower", "driver.analyze",
	"lint.race", "lint.selfcheck", "lint.reuse", "lint.deadstore", "lint.bounds", "lint.uninit", "diag.render"}

// measureTraced alternates traced and untraced ops for d, so both see the
// same machine conditions and the same inputs in the same order, writes
// the spans, and reports the per-layer metrics. The untraced median it
// compares against is this run's, not the --trace 0 run's.
func measureTraced(w workload, name string, seed int64, d time.Duration, res *result, traceOut string) error {
	tr := newTracer()
	c := counters{}
	var lat []float64
	var untraced cost
	traced := 0
	t0 := time.Now()
	for k := 0; time.Since(t0) < d; k++ {
		res.Attempted += 2
		tr.op = k + 1
		// A traced op leaves far more garbage than an untraced one; each
		// side starts on a collected heap so neither pays for the other.
		runtime.GC()
		if err := w.traced(tr, k, 2*k, c); err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: traced op failed:", err)
		}
		traced++
		runtime.GC()
		oc, err := w.op(k, 2*k+1)
		if err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
			continue
		}
		lat = append(lat, float64(oc.wall)/1e6)
		untraced.wall += oc.wall
		untraced.cpu += oc.cpu
	}
	if len(lat) == 0 {
		return fmt.Errorf("%s: no op succeeded", name)
	}
	if err := tr.write(traceOut); err != nil {
		return err
	}
	sort.Float64s(lat)
	p50 := quantile(lat, 0.5)

	// Per layer: self time summed over the run. Per op: the root's
	// duration and the part of it the layers cover. For serve-warm the
	// layers are the in-process replay's, plus the framing: the request
	// minus the replay.
	inLayer := map[string]bool{}
	for _, l := range pipelineLayers {
		inLayer[l] = true
	}
	self, total := map[string]int64{}, map[string]int64{}
	rootNS := map[int]int64{}
	covered := map[int]int64{}
	selfOf := tr.selfTimes()
	for i, s := range tr.spans {
		self[s.Name] += selfOf[i]
		total[s.Name] += s.dur()
		switch {
		case s.Name == "op":
			rootNS[s.Op] = s.dur()
		case inLayer[s.Name]:
			covered[s.Op] += selfOf[i]
		case s.Name == "service.request":
			covered[s.Op] += s.dur()
		case s.Name == "pipeline":
			covered[s.Op] -= s.dur()
		}
	}
	var roots, cover []float64
	for op, ns := range rootNS {
		roots = append(roots, float64(ns)/1e6)
		cover = append(cover, float64(covered[op])/1e6)
	}
	sort.Float64s(roots)
	sort.Float64s(cover)

	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / float64(traced) }
	add := func(k string, v float64, unit string) { res.Metrics[k] = metric{v, unit} }
	for _, l := range pipelineLayers {
		add(l+"_ms", perOp(self[l]), "ms")
	}
	for _, l := range []string{"ir.build", "rangefacts.derive", "lint.race.static", "service.request"} {
		add(l+"_ms", perOp(total[l]), "ms")
	}
	bridge := self["lint.race"] - total["lint.race.static"]
	add("interp.bridge_ms", perOp(bridge), "ms")
	framing := total["service.request"] - total["pipeline"]
	add("service.framing_ms", perOp(framing), "ms")
	status := map[int]int{}
	if sw, ok := w.(*serveWarm); ok {
		status = sw.status
	}
	status5xx := 0
	for code, n := range status {
		if code >= 500 {
			status5xx += n
		}
	}
	add("service.status_429", float64(status[429]), "count")
	add("service.status_5xx", float64(status5xx), "count")

	ops := float64(traced)
	for _, k := range []string{"driver.solves", "driver.disk_hits", "driver.disk_misses", "driver.disk_stores",
		"driver.disk_errors", "dataflow.node_visits", "dataflow.flow_apps",
		"lint.verdicts.parallel", "lint.verdicts.racy", "lint.verdicts.unknown"} {
		add(k, c[k]/ops, "count")
	}
	add("driver.disk_load_ms", c["driver.disk_load_ms"]/ops, "ms")
	add("driver.disk_store_ms", c["driver.disk_store_ms"]/ops, "ms")
	add("dataflow.max_changed_passes", c["dataflow.max_changed_passes"], "count")
	add("driver.memo_hit_ratio", ratio(c["driver.memo_hits"], c["driver.solves"]), "ratio")
	certified := c["lint.verdicts.parallel"] + c["lint.verdicts.racy"] + c["lint.verdicts.unknown"]
	add("lint.decided_frac", ratio(c["lint.verdicts.parallel"]+c["lint.verdicts.racy"], certified), "ratio")
	add("bench.failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	add("bench.latency_samples", float64(len(lat)), "count")
	add("bench.wall_p50_ms", p50, "ms")
	add("bench.wall_p90_ms", quantile(lat, 0.9), "ms")
	add("bench.cpu_per_wall", ratio(untraced.cpu.Seconds(), untraced.wall.Seconds()), "ratio")
	overhead := 100 * (quantile(roots, 0.5) - p50) / p50
	coverage := 100 * quantile(cover, 0.5) / p50
	add("bench.trace_overhead_pct", overhead, "%")
	add("bench.layer_coverage_pct", coverage, "%")

	var opNS int64
	for _, ns := range rootNS {
		opNS += ns
	}
	shareOf := map[string]int64{}
	for _, l := range pipelineLayers {
		shareOf[l] = self[l]
	}
	if name == "serve-warm" {
		shareOf["service.framing"] = framing
	}
	fmt.Printf("%s seed %d: %d traced ops, median %.3f ms; untraced median %.3f ms over %d samples; median layer coverage %.1f%% of it; tracing overhead %+.1f%%\n",
		name, seed, traced, quantile(roots, 0.5), p50, len(lat), coverage, overhead)
	fmt.Printf("%s seed %d: layer shares of the traced op time:\n%s", name, seed, shares(shareOf, opNS))
	fmt.Printf("%s seed %d: standalone apportioning, as shares of the traced op time:\n%s", name, seed, shares(map[string]int64{
		"lint.race.static": total["lint.race.static"], "interp.bridge": bridge,
		"ir.build": total["ir.build"], "rangefacts.derive": total["rangefacts.derive"]}, opNS))
	fmt.Printf("%s seed %d: spans written to %s\n", name, seed, traceOut)
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSS reads the process's resident-set high-water mark in MB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
