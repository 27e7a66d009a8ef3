package diag

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/token"
)

func pos(line, col int) token.Pos { return token.Pos{Line: line, Col: col} }

func TestSortOrder(t *testing.T) {
	fs := []Finding{
		{Analyzer: "reuse", Pos: pos(3, 9), Severity: Info, Message: "b"},
		{Analyzer: "bounds", Pos: pos(3, 9), Severity: Error, Message: "a"},
		{Analyzer: "bounds", Pos: pos(1, 2), Severity: Error, Message: "c"},
		{Analyzer: "bounds", Pos: pos(3, 1), Severity: Error, Message: "d"},
		{Analyzer: "bounds", Pos: pos(3, 9), Severity: Warning, Message: "a"},
	}
	// Shuffle deterministically; the sort must normalize any input order.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		rng.Shuffle(len(fs), func(i, j int) { fs[i], fs[j] = fs[j], fs[i] })
		Sort(fs)
		var got []string
		for _, f := range fs {
			got = append(got, f.String())
		}
		want := []string{
			"1:2: error: bounds: c",
			"3:1: error: bounds: d",
			"3:9: error: bounds: a", // more severe first at equal position+analyzer
			"3:9: warning: bounds: a",
			"3:9: info: reuse: b",
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("trial %d: got order %v", trial, got)
		}
	}
}

func TestDedup(t *testing.T) {
	f := Finding{Analyzer: "uninit", Pos: pos(2, 3), Severity: Warning, Message: "m",
		Detail: map[string]string{"gap": "1"}}
	same := Finding{Analyzer: "uninit", Pos: pos(2, 3), Severity: Warning, Message: "m",
		Detail: map[string]string{"gap": "1"}}
	diff := same
	diff.Detail = map[string]string{"gap": "2"}
	fs := []Finding{f, same, diff}
	Sort(fs)
	if got := Dedup(fs); len(got) != 2 {
		t.Fatalf("want 2 after dedup, got %d: %v", len(got), got)
	}
}

func TestMaxSeverity(t *testing.T) {
	if _, ok := MaxSeverity(nil); ok {
		t.Error("empty set should report ok=false")
	}
	sev, ok := MaxSeverity([]Finding{{Severity: Info}, {Severity: Error}, {Severity: Warning}})
	if !ok || sev != Error {
		t.Errorf("got %v/%v, want error/true", sev, ok)
	}
}

func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Error} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != `"`+s.String()+`"` {
			t.Errorf("marshal %v = %s", s, b)
		}
		var back Severity
		if err := json.Unmarshal(b, &back); err != nil || back != s {
			t.Errorf("round trip %v -> %v (%v)", s, back, err)
		}
	}
	var bad Severity
	if err := json.Unmarshal([]byte(`"fatal"`), &bad); err == nil {
		t.Error("unknown severity should not unmarshal")
	}
}

func TestWriteText(t *testing.T) {
	fs := []Finding{{
		Analyzer: "deadstore", Pos: pos(3, 3), Severity: Warning, Message: "store is dead",
		Related: []Related{{Pos: pos(4, 3), Message: "overwritten here"}},
	}}
	var buf bytes.Buffer
	if err := WriteText(&buf, "prog.loop", fs); err != nil {
		t.Fatal(err)
	}
	want := "prog.loop:3:3: warning: deadstore: store is dead\n" +
		"    prog.loop:4:3: overwritten here\n"
	if buf.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestWriteJSONDeterministicAndEmpty(t *testing.T) {
	fs := []Finding{{
		Analyzer: "bounds", Pos: pos(4, 11), Severity: Error, Message: "m",
		Detail: map[string]string{"zeta": "1", "alpha": "2", "mid": "3"},
	}}
	var first string
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, "prog.loop", fs); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
			continue
		}
		if buf.String() != first {
			t.Fatalf("JSON output unstable:\n%s\nvs\n%s", buf.String(), first)
		}
	}
	if !strings.Contains(first, `"alpha": "2"`) {
		t.Errorf("detail missing: %s", first)
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, "empty.loop", nil); err != nil {
		t.Fatal(err)
	}
	var file File
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("empty output not valid JSON: %v", err)
	}
	if file.Findings == nil || len(file.Findings) != 0 {
		t.Errorf("nil findings should render as an empty array: %s", buf.String())
	}
}

// TestSortDedupMatchLess checks the key-caching Sort and Dedup against
// their definitions on random findings that often tie up to the detail:
// Sort must equal a stable sort by Less, and Dedup must keep exactly the
// findings that differ from their predecessor in a field or in the detail
// rendering.
func TestSortDedupMatchLess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	same := func(a, b []Finding) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !reflect.DeepEqual(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 200; trial++ {
		fs := make([]Finding, 1+rng.Intn(40))
		for i := range fs {
			f := Finding{
				File:     pick("", "a.loop"),
				Analyzer: pick("race", "reuse"),
				Pos:      pos(1+rng.Intn(2), 1+rng.Intn(2)),
				Severity: Severity(rng.Intn(3)),
				Message:  pick("m", "n"),
				Detail:   map[string]string{},
			}
			for k := rng.Intn(3); k > 0; k-- {
				f.Detail[pick("a", "b", "c")] = pick("1", "2")
			}
			if rng.Intn(4) == 0 {
				f.Related = []Related{{Pos: pos(9, 9), Message: "r"}}
			}
			fs[i] = f
		}
		want := append([]Finding(nil), fs...)
		sort.SliceStable(want, func(i, j int) bool { return Less(want[i], want[j]) })
		Sort(fs)
		if !same(fs, want) {
			t.Fatalf("trial %d: Sort differs from a stable sort by Less", trial)
		}

		var wantDedup []Finding
		for i, f := range want {
			if i > 0 && equalHead(f, want[i-1]) && detailKey(f) == detailKey(want[i-1]) {
				continue
			}
			wantDedup = append(wantDedup, f)
		}
		if got := Dedup(fs); !same(got, wantDedup) {
			t.Fatalf("trial %d: Dedup kept %d findings, want %d", trial, len(got), len(wantDedup))
		}
	}
}
