package gogen_test

// These tests pin the unboxed lowering of the paper's kernels. They live
// in an external test package because internal/experiments, which
// generates the kernels, imports gogen.

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/gogen"
	"repro/internal/parser"
	"repro/internal/sema"
)

func emitSrc(t *testing.T, src string) string {
	t.Helper()
	prog, err := parser.Parse("prog.lol", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	out, err := gogen.Emit(info)
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	return string(out)
}

// declType returns the Go type the emitted program declares for the
// private named name.
func declType(t *testing.T, out, name string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^\s*var s\d+_` + name + ` (\S+)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no declaration of %s in:\n%s", name, out)
	}
	return m[1]
}

// TestEmitInfersNumericPrivates: Monte Carlo's dart count and hit
// counter are declared without SRSLY, yet every store keeps them NUMBR,
// so they live as int64 and the dart loop does no boxed arithmetic.
func TestEmitInfersNumericPrivates(t *testing.T) {
	out := emitSrc(t, experiments.GenMonteCarlo(1000, 2))
	for _, name := range []string{"darts", "insider", "total"} {
		if got := declType(t, out, name); got != "int64" {
			t.Errorf("%s is %s, want int64", name, got)
		}
	}
	if strings.Contains(out, "value.Binary(") {
		t.Errorf("montecarlo still calls value.Binary:\n%s", out)
	}
}

// TestEmitKeepsWidenedPrivateBoxed: a NUMBR private later given a NUMBAR
// cannot live as either raw type.
func TestEmitKeepsWidenedPrivateBoxed(t *testing.T) {
	out := emitSrc(t, "HAI 1.2\nI HAS A va ITZ 3\nva R SUM OF va AN 1.5\nVISIBLE va\nKTHXBYE")
	if got := declType(t, out, "va"); got != "value.Value" {
		t.Errorf("va is %s, want value.Value", got)
	}
}

// TestEmitTypedGetsInNBody: the force loops read pos_x and pos_y with
// the typed one-sided gets, locally and from the peer, and never box an
// element through GetElem or LocalGetElem.
func TestEmitTypedGetsInNBody(t *testing.T) {
	out := emitSrc(t, experiments.GenNBody(8, 2))
	for _, want := range []string{
		`pe\.LocalGetNumbar\(slot_pos_x, `, `pe\.LocalGetNumbar\(slot_pos_y, `,
		`pe\.GetNumbar\(\w+, slot_pos_x, `, `pe\.GetNumbar\(\w+, slot_pos_y, `,
	} {
		if !regexp.MustCompile(want).MatchString(out) {
			t.Errorf("nbody lowering has no match for %s", want)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "GetElem(") && strings.Contains(line, "slot_pos_") {
			t.Errorf("boxed element get of a position: %s", strings.TrimSpace(line))
		}
	}
}

// TestEmitConvertsSharedSrslyReads: every store to a shared SRSLY NUMBR
// casts, so the barrier storm's tally reads UR round with a converting
// get and lives as int64 with no boxed arithmetic.
func TestEmitConvertsSharedSrslyReads(t *testing.T) {
	src, err := os.ReadFile("../../testdata/savina/barrierstorm.lol")
	if err != nil {
		t.Fatal(err)
	}
	out := emitSrc(t, string(src))
	if got := declType(t, out, "total"); got != "int64" {
		t.Errorf("total is %s, want int64", got)
	}
	if !regexp.MustCompile(`\(t\d+\)\.ToNumbr\(\)`).MatchString(out) {
		t.Errorf("UR round is not read with a converting get:\n%s", out)
	}
	if strings.Contains(out, "value.Binary(") {
		t.Errorf("barrierstorm still calls value.Binary:\n%s", out)
	}
}
