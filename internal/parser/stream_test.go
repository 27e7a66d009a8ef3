package parser

import (
	"testing"
)

// TestLexErrorsPrecedeParseErrors pins the ErrorList order of the streaming
// parser: every lexical error of the source comes first, in source order,
// then the syntax errors, even when a syntax error precedes a lexical one
// in the text.
func TestLexErrorsPrecedeParseErrors(t *testing.T) {
	src := "do i = 1, 10\n  A[i] := 1 : 2\nenddo\nenddo\n1abc := 3\n//lint:nope\n"
	_, err := Parse(src)
	el, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("err = %v (%T), want an ErrorList", err, err)
	}
	want := []string{
		"2:13: unexpected ':' (did you mean ':='?)",
		"5:2: identifier may not start with a digit",
		`6:1: unknown lint directive "lint:nope" (only lint:ignore is defined)`,
		`2:13: expected statement, found ILLEGAL(":")`,
		"4:1: unexpected enddo at top level",
	}
	if len(el) != len(want) {
		t.Fatalf("got %d errors %v, want %d", len(el), el, len(want))
	}
	for i, w := range want {
		if got := el[i].Error(); got != w {
			t.Errorf("error %d = %q, want %q", i, got, w)
		}
	}
}

// TestDirectiveAfterEarlyTopLevelError checks that parsing which stops at
// a top-level error still scans the rest of the source: the //lint:ignore
// directive after the stray enddo is collected, and so is the lexical
// error after it.
func TestDirectiveAfterEarlyTopLevelError(t *testing.T) {
	src := "enddo\n//lint:ignore race reason here\ndo i = 1, 10\n  A[i] := A[i-1]\nenddo\n$\n"
	prog, err := Parse(src)
	if prog == nil {
		t.Fatal("no partial program")
	}
	if len(prog.Directives) != 1 {
		t.Fatalf("directives = %v, want the one lint:ignore after the error", prog.Directives)
	}
	if d := prog.Directives[0]; d.Pos.Line != 2 || len(d.IDs) != 1 || d.IDs[0] != "race" || d.Reason != "reason here" {
		t.Errorf("directive = %+v", d)
	}
	el, ok := err.(ErrorList)
	if !ok || len(el) != 2 {
		t.Fatalf("err = %v, want the lexical error then the top-level error", err)
	}
	if got, want := el[0].Error(), "6:1: illegal character '$'"; got != want {
		t.Errorf("first error = %q, want %q", got, want)
	}
	if got, want := el[1].Error(), "1:1: unexpected enddo at top level"; got != want {
		t.Errorf("second error = %q, want %q", got, want)
	}
}
