package token

import (
	"strings"
	"testing"
)

// feedOne feeds w to a fresh Matcher and reports whether it begins a
// phrase, and the kind of the one-word phrase it completes (or Illegal).
func feedOne(w string) (bool, Kind) {
	var m Matcher
	ok := m.Feed(w)
	kind, _ := m.Best()
	return ok, kind
}

func TestMatcherSingleWord(t *testing.T) {
	for w, want := range map[string]Kind{"HUGZ": KwHugz, "ME": KwMe, "A": KwA, "R": KwR} {
		if ok, got := feedOne(w); !ok || got != want {
			t.Errorf("Feed(%s) = %v, %v; want true, %v", w, ok, got, want)
		}
	}
	// Words that only begin longer phrases are not complete keywords.
	for _, w := range []string{"BOTH", "IM", "TXT", "SUM", "I", "WE"} {
		if ok, got := feedOne(w); !ok || got != Illegal {
			t.Errorf("Feed(%s) = %v, %v; want true, Illegal", w, ok, got)
		}
	}
	// Words that begin no phrase, upper-case or not, are rejected.
	for _, w := range []string{"CHEEZBURGER", "kitteh", "hugz", "Im", "_", "", "SRSLY", "OF"} {
		if ok, got := feedOne(w); ok || got != Illegal {
			t.Errorf("Feed(%q) = %v, %v; want false, Illegal", w, ok, got)
		}
	}
}

// TestMatcherFirstWords checks the first-letter buckets against the
// phrase table: every phrase's first word starts a phrase, and a word
// that starts none is rejected whatever its first letter.
func TestMatcherFirstWords(t *testing.T) {
	first := map[string]bool{}
	for _, phrase := range Phrases {
		first[strings.Fields(phrase)[0]] = true
	}
	for w := range first {
		if ok, _ := feedOne(w); !ok {
			t.Errorf("Feed(%s) = false; it begins a phrase", w)
		}
		if ok, _ := feedOne(w + "Z"); ok && !first[w+"Z"] {
			t.Errorf("Feed(%sZ) = true; it begins no phrase", w)
		}
	}
}

func TestMatcherLongestMatch(t *testing.T) {
	// "IM SRSLY MESIN WIF" must win over the shorter "IM MESIN WIF" path.
	var m Matcher
	for _, w := range []string{"IM", "SRSLY", "MESIN", "WIF"} {
		if !m.Feed(w) {
			t.Fatalf("Feed(%s) failed", w)
		}
	}
	kind, n := m.Best()
	if kind != KwImSrslyMesinWif || n != 4 {
		t.Errorf("Best() = %v, %d", kind, n)
	}
}

func TestMatcherTracksIntermediateBest(t *testing.T) {
	// Feeding "ITZ SRSLY" then a dead end must report the 1-word "ITZ".
	var m Matcher
	if !m.Feed("ITZ") {
		t.Fatal("Feed(ITZ) failed")
	}
	if !m.Feed("SRSLY") {
		t.Fatal("Feed(SRSLY) failed")
	}
	if m.Feed("CAT") {
		t.Fatal("Feed(CAT) should not extend ITZ SRSLY")
	}
	kind, n := m.Best()
	if kind != KwItz || n != 1 {
		t.Errorf("Best() = %v, %d; want ITZ, 1", kind, n)
	}
}

func TestMatcherCanExtend(t *testing.T) {
	var m Matcher
	m.Feed("AN")
	if !m.CanExtend() {
		t.Error("AN begins AN THAR IZ / AN ITZ / AN IM SHARIN IT / AN STUFF; CanExtend should be true")
	}
	m.Feed("STUFF")
	if m.CanExtend() {
		t.Error("AN STUFF is terminal; CanExtend should be false")
	}
	if kind, _ := m.Best(); kind != KwAnStuff {
		t.Errorf("Best() = %v", kind)
	}
}

func TestKindStringAndPredicates(t *testing.T) {
	if KwSumOf.String() != "SUM OF" {
		t.Errorf("KwSumOf.String() = %q", KwSumOf.String())
	}
	if Ident.String() != "IDENT" {
		t.Errorf("Ident.String() = %q", Ident.String())
	}
	if !KwHugz.IsKeyword() || Ident.IsKeyword() {
		t.Error("IsKeyword misclassifies")
	}
	if !NumbrLit.IsLiteral() || KwHugz.IsLiteral() {
		t.Error("IsLiteral misclassifies")
	}
	if !KwNumbr.IsType() || KwHugz.IsType() {
		t.Error("IsType misclassifies")
	}
}

func TestPosString(t *testing.T) {
	p := Pos{File: "a.lol", Line: 3, Col: 7}
	if p.String() != "a.lol:3:7" {
		t.Errorf("Pos.String() = %q", p.String())
	}
	if (Pos{Line: 3, Col: 7}).String() != "3:7" {
		t.Error("file-less Pos format wrong")
	}
	if (Pos{}).IsValid() {
		t.Error("zero Pos should be invalid")
	}
}
