package parser

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/token"
)

// TestErrorRecoveryReportsMultiple verifies the parser keeps going after a
// bad statement and reports several diagnostics in one pass — the behaviour
// a teaching tool needs.
func TestErrorRecoveryReportsMultiple(t *testing.T) {
	_, err := Parse("t.lol", `HAI 1.2
I HAS A
VISIBLE "fine"
GIMMEH 42
VISIBLE "also fine"
I HAS A ok ITZ
KTHXBYE`)
	if err == nil {
		t.Fatal("expected errors")
	}
	list, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("error type %T, want ErrorList", err)
	}
	if len(list) < 2 {
		t.Fatalf("got %d errors, want at least 2: %v", len(list), list)
	}
	// Each error carries a position in the right file.
	for _, e := range list {
		if e.Pos.File != "t.lol" || e.Pos.Line == 0 {
			t.Errorf("error without position: %v", e)
		}
	}
}

func TestErrorCap(t *testing.T) {
	// A pathological file must not produce unbounded errors.
	var b strings.Builder
	b.WriteString("HAI 1.2\n")
	for i := 0; i < 100; i++ {
		b.WriteString("GIMMEH 42\n")
	}
	b.WriteString("KTHXBYE\n")
	_, err := Parse("t.lol", b.String())
	if err == nil {
		t.Fatal("expected errors")
	}
	if list := err.(ErrorList); len(list) > 25 {
		t.Errorf("got %d errors; recovery should cap around %d", len(list), 20)
	}
}

func TestMissingKthxbye(t *testing.T) {
	_, err := Parse("t.lol", "HAI 1.2\nVISIBLE 1\n")
	if err == nil || !strings.Contains(err.Error(), "KTHXBYE") {
		t.Errorf("want KTHXBYE diagnostic, got %v", err)
	}
}

func TestTrailingInputAfterKthxbye(t *testing.T) {
	_, err := Parse("t.lol", "HAI 1.2\nKTHXBYE\nVISIBLE 1\n")
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("want trailing-input diagnostic, got %v", err)
	}
}

func TestUnclosedConstructs(t *testing.T) {
	cases := []string{
		"HAI 1.2\nO RLY?\nYA RLY\nVISIBLE 1\nKTHXBYE",         // missing OIC
		"HAI 1.2\nIM IN YR l\nVISIBLE 1\nKTHXBYE",             // missing IM OUTTA YR
		"HAI 1.2\nHOW IZ I f\nFOUND YR 1\nKTHXBYE",            // missing IF U SAY SO
		"HAI 1.2\nTXT MAH BFF 0 AN STUFF\nVISIBLE 1\nKTHXBYE", // missing TTYL
		"HAI 1.2\nWTF?\nOMG 1\nVISIBLE 1\nKTHXBYE",            // missing OIC
	}
	for _, src := range cases {
		if _, err := Parse("t.lol", src); err == nil {
			t.Errorf("parser accepted unclosed construct:\n%s", src)
		}
	}
}

func TestLoopLabelMismatchDiagnosed(t *testing.T) {
	_, err := Parse("t.lol", "HAI 1.2\nIM IN YR a\nGTFO\nIM OUTTA YR b\nKTHXBYE")
	if err == nil || !strings.Contains(err.Error(), "label mismatch") {
		t.Errorf("want label-mismatch diagnostic, got %v", err)
	}
}

// TestPositionsOnStatements spot-checks that parsed nodes carry accurate
// line/column positions for diagnostics.
func TestPositionsOnStatements(t *testing.T) {
	prog := mustParse(t, "HAI 1.2\nVISIBLE 1\n  HUGZ\nKTHXBYE")
	if got := prog.Body[0].Pos(); got.Line != 2 || got.Col != 1 {
		t.Errorf("VISIBLE at %v, want 2:1", got)
	}
	if got := prog.Body[1].Pos(); got.Line != 3 || got.Col != 3 {
		t.Errorf("HUGZ at %v, want 3:3", got)
	}
}

// TestTokenPhraseTable guards the keyword table: every phrase must be
// non-empty, unique, and made of upper-case words.
func TestTokenPhraseTable(t *testing.T) {
	seen := map[string]token.Kind{}
	for kind, phrase := range token.Phrases {
		if phrase == "" {
			t.Errorf("kind %v has empty phrase", kind)
		}
		if prev, dup := seen[phrase]; dup {
			t.Errorf("phrase %q maps to both %v and %v", phrase, prev, kind)
		}
		seen[phrase] = kind
		if phrase != strings.ToUpper(phrase) {
			t.Errorf("phrase %q is not upper-case", phrase)
		}
	}
}

// TestErrorOrderAcrossLexerAndParser pins the error list when lexical
// errors come after the syntax errors that fill it: every lexical error
// still comes first, in source order, then as many syntax errors as the
// cap leaves room for, and a parse the cap stopped returns no program.
func TestErrorOrderAcrossLexerAndParser(t *testing.T) {
	for _, yarns := range []int{3, 19, 20, 22} {
		var b strings.Builder
		b.WriteString("HAI 1.2\n")
		for i := 0; i < 25; i++ {
			b.WriteString("GIMMEH 42\n") // line i+2
		}
		for i := 0; i < yarns; i++ {
			b.WriteString("VISIBLE \"open\n") // line 27+i
		}
		b.WriteString("KTHXBYE\n")

		var want []string
		for i := 0; i < yarns; i++ {
			want = append(want, fmt.Sprintf("t.lol:%d:9: unterminated YARN literal", 27+i))
		}
		// Each GIMMEH 42 is two syntax errors.
		for i := 0; len(want) < maxErrors; i++ {
			msg := `expected a variable name, found NUMBR_LIT("42")`
			if i%2 == 1 {
				msg = `unexpected NUMBR_LIT("42") at end of statement`
			}
			want = append(want, fmt.Sprintf("t.lol:%d:8: %s", 2+i/2, msg))
		}

		prog, err := Parse("t.lol", b.String())
		list, ok := err.(ErrorList)
		if !ok {
			t.Fatalf("%d YARNs: error %T, want ErrorList", yarns, err)
		}
		var got []string
		for _, e := range list {
			got = append(got, e.Error())
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%d YARNs: errors\n%s\nwant\n%s", yarns, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		wantText := fmt.Sprintf("%s (and %d more errors)", want[0], len(want)-1)
		if err.Error() != wantText {
			t.Errorf("%d YARNs: Error() = %q, want %q", yarns, err.Error(), wantText)
		}
		if prog != nil {
			t.Errorf("%d YARNs: the cap stopped the parse, but it returned a program", yarns)
		}
	}
}

// TestBinOpKeywords checks that binOp maps each binary-operator keyword
// to the operator of the same name, and no other keyword to one.
func TestBinOpKeywords(t *testing.T) {
	ops := 0
	for kind, phrase := range token.Phrases {
		if op, ok := binOp(kind); ok {
			ops++
			if op.String() != phrase {
				t.Errorf("binOp(%v) = %v", kind, op)
			}
		}
	}
	if ops != 14 {
		t.Errorf("binOp maps %d keywords, want the 14 from SUM OF to WON OF", ops)
	}
}
