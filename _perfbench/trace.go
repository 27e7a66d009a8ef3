package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary.
type span struct {
	Name string `json:"name"`
	// Op numbers the traced operation the span belongs to; ID is unique in
	// the run and Parent is the enclosing span's ID (0 for a root).
	Op      int   `json:"op"`
	ID      int   `json:"id"`
	Parent  int   `json:"parent"`
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Standalone marks a root that is not part of the operation's latency:
	// a separate call that apportions a layer's time (CertifyLoop, ir.Build,
	// rangefacts.Derive, the in-process replay of a service request).
	Standalone bool `json:"standalone,omitempty"`
}

// tracer keeps every span in memory until the run ends. It is used from
// the benchmark goroutine only: the spans sit around calls into the
// layers, never inside them.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 = a new root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, StartNS: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].EndNS = int64(time.Since(t.t0)) }

// standalone opens a root span that does not count toward the op.
func (t *tracer) standalone(name string) int {
	id := t.begin(name, 0)
	t.spans[id-1].Standalone = true
	return id
}

// timed runs fn inside a span named name under parent.
func (t *tracer) timed(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// selfTimes returns each span's self time, indexed by ID−1: its duration
// minus the time its children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent != 0 {
			self[s.Parent-1] -= s.dur()
		}
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shares renders each layer's share of the mean traced op, largest first.
func shares(self map[string]int64, total int64) string {
	type kv struct {
		name string
		ns   int64
	}
	var rows []kv
	for k, v := range self {
		rows = append(rows, kv{k, v})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].ns != rows[j].ns {
			return rows[i].ns > rows[j].ns
		}
		return rows[i].name < rows[j].name
	})
	out := ""
	for _, r := range rows {
		out += fmt.Sprintf("  %-22s %6.1f%%\n", r.name, 100*float64(r.ns)/float64(total))
	}
	return out
}
