package dataflow

import (
	"fmt"
	"time"

	"repro/internal/cachefile"
	"repro/internal/ir"
	"repro/internal/lattice"
)

// Result state (de)serialization for the persistent solve cache. Only what
// cannot be recomputed deterministically from the loop AST is written: the
// fixed-point IN/OUT slabs, the initialization-pass snapshot, and the solve
// counters. The graph, class table, pr bitsets, flow functions, and reuse
// facts are all pure functions of the canonical loop rendering — which the
// content address already pins — so the restoring side rebuilds them and
// validates the shapes against the decoded payload.
//
// The state is split in two so a loader can be lazy: ResultMeta carries the
// counters and shape (cheap, decoded eagerly — whole-program metrics need
// them even when nobody looks at the facts), and EncodeRows carries the
// lattice slabs (bulky, decodable later, alongside the graph rebuild, the
// first time a consumer actually reads the results).

// PersistVersion is the payload layout generation; it feeds the schema hash
// (see driver's disk cache), so bumping it abandons old files wholesale
// rather than risking a misparse. v2 moved the counters ahead of the rows
// and framed the rows as a skippable blob per spec.
const PersistVersion = "result-v2"

// ResultMeta is the eagerly-decoded slice of a persisted Result: the solve
// counters and the slab shape. It is everything Metrics() reports plus what
// the row decoder needs to validate the deferred slabs.
type ResultMeta struct {
	// Nodes and Classes are the slab shape (N and m of the paper's O(N·m)
	// bound); the restore validates them against the rebuilt graph.
	Nodes, Classes int
	// HasInit records whether an initialization-pass snapshot follows the
	// fixed point in the row block.
	HasInit bool

	Passes        int
	ChangedPasses int
	NodeVisits    int
	FlowApps      int
	Elapsed       time.Duration
	FuelBudget    int64
	FuelExhausted bool
}

// PersistMeta extracts the persistent counters and shape of a live result.
// A deferred packed init snapshot is reported present without decoding it
// (InitIn only runs for results that never had one deferred).
func (res *Result) PersistMeta() ResultMeta {
	return ResultMeta{
		Nodes:         len(res.Graph.Nodes),
		Classes:       len(res.Classes),
		HasInit:       res.initW != nil || res.InitIn() != nil,
		Passes:        res.Passes,
		ChangedPasses: res.ChangedPasses,
		NodeVisits:    res.NodeVisits,
		FlowApps:      res.FlowApps,
		Elapsed:       res.Elapsed,
		FuelBudget:    res.FuelBudget,
		FuelExhausted: res.FuelExhausted,
	}
}

// Metrics converts the persisted counters back to the solver metrics a
// fresh solve would report, so a lazy load can feed whole-program metrics
// without touching the deferred rows.
func (m ResultMeta) Metrics() Metrics {
	return Metrics{
		Nodes:         m.Nodes,
		Classes:       m.Classes,
		Passes:        m.Passes,
		ChangedPasses: m.ChangedPasses,
		NodeVisits:    m.NodeVisits,
		FlowApps:      m.FlowApps,
		Elapsed:       m.Elapsed,
		FuelExhausted: m.FuelExhausted,
	}
}

// Encode appends the meta block to w.
func (m ResultMeta) Encode(w *cachefile.Writer) {
	w.Uint(uint64(m.Nodes))
	w.Uint(uint64(m.Classes))
	w.Bool(m.HasInit)
	w.Uint(uint64(m.Passes))
	w.Uint(uint64(m.ChangedPasses))
	w.Uint(uint64(m.NodeVisits))
	w.Uint(uint64(m.FlowApps))
	w.Int(int64(m.Elapsed))
	w.Int(m.FuelBudget)
	w.Bool(m.FuelExhausted)
}

// DecodeResultMeta reads a meta block; the caller checks r.Err afterwards
// (reads after an error return zero values).
func DecodeResultMeta(r *cachefile.Reader) ResultMeta {
	var m ResultMeta
	m.Nodes = int(r.Uint())
	m.Classes = int(r.Uint())
	m.HasInit = r.Bool()
	m.Passes = int(r.Uint())
	m.ChangedPasses = int(r.Uint())
	m.NodeVisits = int(r.Uint())
	m.FlowApps = int(r.Uint())
	m.Elapsed = time.Duration(r.Int())
	m.FuelBudget = r.Int()
	m.FuelExhausted = r.Bool()
	return m
}

// encodeDist maps the chain lattice onto unsigned varints:
// 0 = ⊥ (None), 1 = ⊤ (All), d+2 = finite distance d (d ≥ 0).
func encodeDist(x lattice.Dist) uint64 {
	if d, ok := x.Finite(); ok {
		return uint64(d) + 2
	}
	if x.IsAll() {
		return 1
	}
	return 0
}

func decodeDist(u uint64) lattice.Dist {
	switch u {
	case 0:
		return lattice.None()
	case 1:
		return lattice.All()
	default:
		return lattice.D(int64(u - 2))
	}
}

func encodeRows(w *cachefile.Writer, rows []lattice.Tuple, n, m int) {
	for id := 1; id <= n; id++ {
		row := rows[id]
		for j := 0; j < m; j++ {
			w.Uint(encodeDist(row[j]))
		}
	}
}

func decodeRows(r *cachefile.Reader, n, m int) []lattice.Tuple {
	rows := lattice.Slab(n, m)
	for id := 1; id <= n; id++ {
		row := rows[id]
		for j := 0; j < m; j++ {
			row[j] = decodeDist(r.Uint())
		}
	}
	return rows
}

// EncodeRows appends the result's lattice state — the fixed-point IN/OUT
// slabs and, when present, the initialization-pass snapshot — to w. The
// shape and the snapshot's presence travel in the ResultMeta block, which
// must be encoded alongside.
func (res *Result) EncodeRows(w *cachefile.Writer) {
	n := len(res.Graph.Nodes)
	m := len(res.Classes)
	encodeRows(w, res.In, n, m)
	encodeRows(w, res.Out, n, m)
	initIn, initOut := res.initSnapshot()
	if initIn != nil {
		encodeRows(w, initIn, n, m)
		encodeRows(w, initOut, n, m)
	}
}

// RestoreResult rebuilds a solved Result for spec on g from a meta block
// and the row bytes written by EncodeRows. The graph must have been built
// from the same canonical loop under the same dims — the class table is
// re-derived from it, and the decoded shapes are validated against it, so a
// payload that does not match (stale semantics behind an aliased content
// address) fails rather than producing wrong facts. Flow functions are not
// restored; ApplyFlow compiles them lazily on first use.
func RestoreResult(g *ir.Graph, spec *Spec, meta ResultMeta, rows []byte) (*Result, error) {
	res := &Result{Graph: g, Spec: spec}
	res.adoptClasses(buildClassTable(g, spec.Gen))
	n := len(g.Nodes)
	m := len(res.Classes)
	if meta.Nodes != n || meta.Classes != m {
		return nil, fmt.Errorf("dataflow: restored shape %dx%d does not match rebuilt graph %dx%d", meta.Nodes, meta.Classes, n, m)
	}
	r := cachefile.NewReader(rows)
	res.In = decodeRows(r, n, m)
	res.Out = decodeRows(r, n, m)
	if meta.HasInit {
		res.initIn = decodeRows(r, n, m)
		res.initOut = decodeRows(r, n, m)
	}
	res.Passes = meta.Passes
	res.ChangedPasses = meta.ChangedPasses
	res.NodeVisits = meta.NodeVisits
	res.FlowApps = meta.FlowApps
	res.Elapsed = meta.Elapsed
	res.FuelBudget = meta.FuelBudget
	res.FuelExhausted = meta.FuelExhausted
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !r.Done() {
		return nil, fmt.Errorf("dataflow: %d trailing bytes after restored rows", len(rows))
	}
	return res, nil
}
