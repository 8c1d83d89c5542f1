package compile

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/sema"
)

func compileSrc(t *testing.T, src string) *Program {
	t.Helper()
	tree, err := parser.Parse("t.lol", src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(info)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func runCompiled(t *testing.T, p *Program, np int) string {
	t.Helper()
	var out strings.Builder
	if _, err := p.Run(interp.Config{NP: np, Seed: 3, Stdout: &out, GroupOutput: true}); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestCompiledProgramIsReusable runs the same compiled program several
// times; compilation must not capture per-run state.
func TestCompiledProgramIsReusable(t *testing.T) {
	p := compileSrc(t, `HAI 1.2
I HAS A n ITZ 0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 5
  n R SUM OF n AN i
IM OUTTA YR l
VISIBLE n
KTHXBYE`)
	first := runCompiled(t, p, 1)
	for i := 0; i < 3; i++ {
		if got := runCompiled(t, p, 1); got != first {
			t.Fatalf("run %d produced %q, first produced %q", i, got, first)
		}
	}
	if first != "10\n" {
		t.Errorf("output %q, want 10", first)
	}
}

// TestCompiledProgramConcurrentRuns exercises two whole SPMD worlds running
// the same compiled program at once (e.g. a test harness and a benchmark).
func TestCompiledProgramConcurrentRuns(t *testing.T) {
	p := compileSrc(t, `HAI 1.2
WE HAS A x ITZ SRSLY A NUMBR
x R PRODUKT OF ME AN 3
HUGZ
I HAS A next ITZ A NUMBR AN ITZ MOD OF SUM OF ME AN 1 AN MAH FRENZ
I HAS A got ITZ A NUMBR
TXT MAH BFF next, got R UR x
VISIBLE got
KTHXBYE`)
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out strings.Builder
			if _, err := p.Run(interp.Config{NP: 4, Stdout: &out, GroupOutput: true}); err != nil {
				errs[i] = err.Error()
				return
			}
			if out.String() != "3\n6\n9\n0\n" {
				errs[i] = fmt.Sprintf("bad output %q", out.String())
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Errorf("concurrent run %d: %s", i, e)
		}
	}
}

// TestSrsWorksInCompileBackend: SRS needs runtime name resolution, which
// the closure backend supports (unlike gogen).
func TestSrsWorksInCompileBackend(t *testing.T) {
	p := compileSrc(t, `HAI 1.2
I HAS A lol ITZ 7
I HAS A which ITZ "lol"
SRS which R 9
VISIBLE lol
VISIBLE SRS "which"
KTHXBYE`)
	// SRS "which" names the variable which, whose value is the YARN "lol".
	if got := runCompiled(t, p, 1); got != "9\nlol\n" {
		t.Errorf("got %q", got)
	}
}

// TestCompileRejectsNothing checks compile succeeds on every conformance
// construct (the conformance suite runs them; here we just guard the
// compile step itself against regressions on a program using most syntax).
func TestCompileKitchenSink(t *testing.T) {
	p := compileSrc(t, `HAI 1.2
CAN HAS STDIO?
I HAS A a ITZ LOTZ A NUMBARS AN THAR IZ 4
WE HAS A s ITZ SRSLY A NUMBR AN IM SHARIN IT
HOW IZ I clamp YR x AN YR hi
  BIGGER x AN hi, O RLY?
  YA RLY
    FOUND YR hi
  OIC
  FOUND YR x
IF U SAY SO
a'Z 0 R 9.5
a'Z 1 R I IZ clamp YR a'Z 0 AN YR 5 MKAY
VISIBLE a'Z 1
IM MESIN WIF s, O RLY?
YA RLY
  DUN MESIN WIF s
  VISIBLE "lock ok"
OIC
"2", WTF?
OMG "1"
  VISIBLE "one"
OMG "2"
  VISIBLE "two"
  GTFO
OIC
MAEK "3" A NUMBR
VISIBLE SMOOSH "IT=" AN IT MKAY
KTHXBYE`)
	want := "5.00\nlock ok\ntwo\nIT=3\n"
	if got := runCompiled(t, p, 1); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestCompileErrorsCarryPositions confirms runtime diagnostics still point
// at source after compilation.
func TestCompileErrorsCarryPositions(t *testing.T) {
	p := compileSrc(t, "HAI 1.2\nVISIBLE FLIP OF 0\nKTHXBYE")
	_, err := p.Run(interp.Config{NP: 1})
	if err == nil || !strings.Contains(err.Error(), "t.lol:2:") {
		t.Errorf("want positioned error, got %v", err)
	}
}

// TestSpecializationAblationAgrees runs the same programs with and without
// the typed fast paths; outputs and runtime errors must be identical (the
// ablation changes speed, never semantics). A program with wantErr must
// fail with it on both paths.
func TestSpecializationAblationAgrees(t *testing.T) {
	sources := []struct{ src, wantErr string }{
		{src: `HAI 1.2
I HAS A acc ITZ SRSLY A NUMBAR AN ITZ 0.0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 100
  acc R SUM OF acc AN FLIP OF SUM OF i AN 1
IM OUTTA YR l
VISIBLE acc
KTHXBYE`},
		{src: `HAI 1.2
I HAS A a ITZ LOTZ A NUMBARS AN THAR IZ 8
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8
  a'Z i R PRODUKT OF i AN 1.5
IM OUTTA YR l
VISIBLE a'Z 7
VISIBLE QUOSHUNT OF -3 AN 7
VISIBLE QUOSHUNT OF PRODUKT OF 1.0 AN -3 AN 7
KTHXBYE`},
		// Inferred NUMBR and NUMBAR privates take the typed closures.
		{src: `HAI 1.2
I HAS A darts ITZ A NUMBR AN ITZ 50
I HAS A insider ITZ 0
I HAS A x ITZ SRSLY A NUMBAR
I HAS A area ITZ 0.0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN darts
  x R WHATEVAR
  SMALLR SQUAR OF x AN 0.5, O RLY?
  YA RLY
    insider R SUM OF insider AN 1
  OIC
  area R SUM OF area AN QUOSHUNT OF x AN darts
IM OUTTA YR l
VISIBLE insider " " QUOSHUNT OF -7 AN insider " " area
KTHXBYE`},
		// SRS stores cast into a SRSLY private, but may store any kind
		// into a plain one.
		{src: `HAI 1.2
I HAS A s ITZ SRSLY A NUMBR AN ITZ 1
SRS "s" R "7"
VISIBLE SUM OF s AN 1
I HAS A n ITZ 3
I HAS A name ITZ "n"
SRS name R "abc"
VISIBLE n
VISIBLE SUM OF n AN 1
KTHXBYE`, wantErr: `SUM OF: YARN "abc" is not a NUMBR`},
	}
	for i, c := range sources {
		tree, err := parser.Parse("t.lol", c.src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := sema.Check(tree)
		if err != nil {
			t.Fatal(err)
		}
		var outs [2]string
		for j, opts := range []Options{{}, {DisableSpecialization: true}} {
			p, err := CompileOpts(info, opts)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			_, err = p.Run(interp.Config{NP: 1, Stdout: &out, GroupOutput: true})
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatal(err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("program %d (specialized=%v): error %v, want %q", i, j == 0, err, c.wantErr)
			}
			outs[j] = out.String()
		}
		if outs[0] != outs[1] {
			t.Errorf("program %d: specialized %q != generic %q", i, outs[0], outs[1])
		}
	}
}

// TestSpecializedIntDivisionStaysInteger pins the regression the
// differential suite caught during development: an all-NUMBR QUOSHUNT
// inside a float context must keep integer semantics.
func TestSpecializedIntDivisionStaysInteger(t *testing.T) {
	p := compileSrc(t, `HAI 1.2
I HAS A sf ITZ SRSLY A NUMBAR
sf R PRODUKT OF PRODUKT OF 4 AN 5.8 AN QUOSHUNT OF -3 AN 7
VISIBLE sf
KTHXBYE`)
	// QUOSHUNT OF -3 AN 7 is integer division = 0, so the product is 0.
	if got := runCompiled(t, p, 1); got != "0.00\n" {
		t.Errorf("got %q, want 0.00 (integer division inside float context)", got)
	}
}
