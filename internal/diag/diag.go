// Package diag defines the unified diagnostic currency of the static
// analysis layer: a Finding ties an analyzer's verdict to a source position
// range, a severity, and optional structured detail. Findings are value
// types with a total deterministic order, so analyzer output can be pinned
// byte-for-byte in golden tests and emitted stably from parallel runs.
package diag

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/token"
)

// Severity grades a finding. The zero value is Info.
type Severity int

// Severity levels, ordered least to most severe.
const (
	Info Severity = iota
	Warning
	Error
)

var severityNames = [...]string{"info", "warning", "error"}

// String returns the lower-case severity name.
func (s Severity) String() string {
	if s < Info || s > Error {
		return fmt.Sprintf("Severity(%d)", int(s))
	}
	return severityNames[s]
}

// MarshalJSON emits the severity as its lower-case name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts a lower-case severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range severityNames {
		if n == name {
			*s = Severity(i)
			return nil
		}
	}
	return fmt.Errorf("diag: unknown severity %q", name)
}

// Related points at a secondary position that explains a finding (the
// overwriting store of a dead store, the blocking reference pair of a
// non-parallelizable loop). File, when non-empty, names the source file the
// position belongs to; empty means "same file as the run" (single-file
// mini-language inputs never set it).
type Related struct {
	File    string    `json:"file,omitempty"`
	Pos     token.Pos `json:"pos"`
	Message string    `json:"message"`
}

// TextEdit is one replacement of a source range by new text. The range is
// [Pos, End) in line/column terms; an invalid End means a pure insertion at
// Pos. Edits never span a change that the positions cannot express (they
// are computed against the exact source the analyzers saw).
type TextEdit struct {
	Pos     token.Pos `json:"pos"`
	End     token.Pos `json:"end"`
	NewText string    `json:"newText"`
}

// SuggestedFix is a machine-applicable repair for a finding: a short
// description plus the text edits realizing it. Fixes must be mechanical —
// applying one removes the finding without changing intended behavior (or,
// for uninitialized reads, makes the intended behavior explicit).
type SuggestedFix struct {
	Message string     `json:"message"`
	Edits   []TextEdit `json:"edits"`
}

// Finding is one diagnostic produced by a static analyzer.
type Finding struct {
	// Analyzer is the stable ID of the producing analyzer (e.g.
	// "deadstore"); parse and semantic errors use "parse" and "sema".
	Analyzer string `json:"analyzer"`
	// File names the source file the finding points into, relative to the
	// module root, for multi-file front ends (the Go importer). Empty means
	// the single source of the run: renderers then fall back to the run's
	// display name, which keeps single-file mini-language output unchanged.
	File string `json:"file,omitempty"`
	// Pos is the primary source position; End, when valid, closes a range
	// (an invalid End means the finding covers a single point).
	Pos token.Pos `json:"pos"`
	End token.Pos `json:"end"`
	// Severity grades the finding; Error severities fail `arrayflow vet`.
	Severity Severity `json:"severity"`
	// Message is the human-readable, single-line description.
	Message string `json:"message"`
	// Related lists secondary positions that explain the finding.
	Related []Related `json:"related,omitempty"`
	// Detail carries analyzer-specific structured facts (distances, bounds,
	// class forms). A string-keyed map keeps JSON output deterministic:
	// encoding/json sorts map keys.
	Detail map[string]string `json:"detail,omitempty"`
	// SuggestedFixes lists machine-applicable repairs; ApplyFixes applies
	// the first fix of each finding when its edits do not conflict.
	SuggestedFixes []SuggestedFix `json:"suggestedFixes,omitempty"`
	// Suppressed marks a finding silenced by a //lint:ignore directive (the
	// reason is kept in Detail["suppressedBy"]). Suppressed findings are
	// excluded from text output and exit codes but surface in SARIF with a
	// suppression record, as code-scanning backends expect.
	Suppressed bool `json:"suppressed,omitempty"`
}

// String renders "line:col: severity: analyzer: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", f.Pos, f.Severity, f.Analyzer, f.Message)
}

// Less is the total deterministic order over findings: by file first
// (multi-file runs group per artifact; the empty file of single-source
// runs sorts before any named one), then position (source order is what a
// reader scans by), then analyzer ID, severity, message, and finally the
// detail rendering as an ultimate tie-break.
func Less(a, b Finding) bool {
	if c := compareHead(a, b); c != 0 {
		return c < 0
	}
	return detailKey(a) < detailKey(b)
}

// compareHead is Less without the detail tie-break, as a three-way
// comparison: 0 means the order falls to the detail keys.
func compareHead(a, b Finding) int {
	switch {
	case a.File != b.File:
		return cmp.Compare(a.File, b.File)
	case a.Pos.Line != b.Pos.Line:
		return cmp.Compare(a.Pos.Line, b.Pos.Line)
	case a.Pos.Col != b.Pos.Col:
		return cmp.Compare(a.Pos.Col, b.Pos.Col)
	case a.Analyzer != b.Analyzer:
		return cmp.Compare(a.Analyzer, b.Analyzer)
	case a.Severity != b.Severity:
		return cmp.Compare(b.Severity, a.Severity) // more severe first
	case a.Message != b.Message:
		return cmp.Compare(a.Message, b.Message)
	}
	return 0
}

func detailKey(f Finding) string {
	if len(f.Detail) == 0 {
		return ""
	}
	keys := make([]string, 0, len(f.Detail))
	for k := range f.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(f.Detail[k])
		b.WriteByte(';')
	}
	return b.String()
}

// Sort orders findings deterministically in place (see Less). It sorts a
// permutation and renders each finding's detail key at most once, and only
// when a comparison ties on everything before it.
func Sort(fs []Finding) {
	if len(fs) < 2 {
		return
	}
	order := make([]int, len(fs))
	for i := range order {
		order[i] = i
	}
	keys := make([]string, len(fs))
	keyed := make([]bool, len(fs))
	key := func(i int) string {
		if !keyed[i] {
			keys[i], keyed[i] = detailKey(fs[i]), true
		}
		return keys[i]
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if c := compareHead(fs[a], fs[b]); c != 0 {
			return c < 0
		}
		return key(a) < key(b)
	})
	sorted := make([]Finding, len(fs))
	for i, k := range order {
		sorted[i] = fs[k]
	}
	copy(fs, sorted)
}

// Dedup removes exact duplicates from a sorted slice. Each finding's
// detail key is rendered at most once, and only for neighbours that agree
// on everything else.
func Dedup(fs []Finding) []Finding {
	out := fs[:0]
	var prevKey string
	prevKeyed := false // prevKey holds fs[i-1]'s detail key
	for i, f := range fs {
		key, keyed, dup := "", false, false
		if i > 0 && equalHead(f, fs[i-1]) {
			if !prevKeyed {
				prevKey = detailKey(fs[i-1])
			}
			key, keyed = detailKey(f), true
			dup = key == prevKey
		}
		prevKey, prevKeyed = key, keyed
		if !dup {
			out = append(out, f)
		}
	}
	return out
}

// equalHead reports that two findings agree on everything but the detail.
func equalHead(a, b Finding) bool {
	if a.File != b.File {
		return false
	}
	if a.Analyzer != b.Analyzer || a.Pos != b.Pos || a.End != b.End ||
		a.Severity != b.Severity || a.Message != b.Message ||
		len(a.Related) != len(b.Related) {
		return false
	}
	for i := range a.Related {
		if a.Related[i] != b.Related[i] {
			return false
		}
	}
	return true
}

// MaxSeverity returns the highest severity present (Info for an empty set,
// alongside ok=false).
func MaxSeverity(fs []Finding) (Severity, bool) {
	if len(fs) == 0 {
		return Info, false
	}
	max := Info
	for _, f := range fs {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max, true
}

// WriteText renders findings in the conventional compiler format, one per
// line, with related positions indented beneath:
//
//	file:3:9: warning: deadstore: store to A[i] is overwritten ...
//	    file:4:9: overwritten here (distance 1)
//
// Suppressed findings (//lint:ignore, baseline) are omitted — text output
// is the human-facing view of what still needs attention; JSON and SARIF
// carry the suppressed findings with their justification.
//
// file is the run's display name, used for findings that do not carry
// their own File (single-source front ends); findings with File set (the
// Go importer's module-root-relative paths) print it instead.
func WriteText(w io.Writer, file string, fs []Finding) error {
	// Render into one pre-sized builder and write once: the per-line
	// Fprintf-to-w pattern cost a write call per finding, which dominated
	// rendering on large finding sets.
	var b strings.Builder
	size := 0
	for _, f := range fs {
		size += len(file) + len(f.File) + len(f.Message) + 48
		for _, r := range f.Related {
			size += len(file) + len(r.Message) + 24
		}
	}
	b.Grow(size)
	for _, f := range fs {
		if f.Suppressed {
			continue
		}
		fmt.Fprintf(&b, "%s:%s\n", artifactName(file, f.File), f)
		for _, r := range f.Related {
			fmt.Fprintf(&b, "    %s:%s: %s\n", artifactName(artifactName(file, f.File), r.File), r.Pos, r.Message)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// artifactName resolves a finding-level file against the run-level display
// name: per-finding files win, the run name is the single-source fallback.
func artifactName(runFile, findingFile string) string {
	if findingFile != "" {
		return findingFile
	}
	return runFile
}

// File groups the findings of one source file for JSON output.
type File struct {
	File     string    `json:"file"`
	Findings []Finding `json:"findings"`
}

// WriteJSON renders one file's findings as an indented JSON document with a
// trailing newline. Output is deterministic for sorted findings: struct
// fields emit in declaration order and Detail maps sort by key.
func WriteJSON(w io.Writer, file string, fs []Finding) error {
	if fs == nil {
		fs = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(File{File: file, Findings: fs})
}
