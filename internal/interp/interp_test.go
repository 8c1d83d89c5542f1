package interp

import (
	"strings"
	"testing"

	"repro/internal/parser"
	"repro/internal/sema"
)

// run executes src at np=1 (unless overridden) and returns stdout.
func run(t *testing.T, src string, np int) string {
	t.Helper()
	out, err := tryRun(src, np, "")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

func tryRun(src string, np int, stdin string) (string, error) {
	tree, err := parser.Parse("t.lol", src)
	if err != nil {
		return "", err
	}
	info, err := sema.Check(tree)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	_, err = Run(info, Config{
		NP:          np,
		Seed:        5,
		Stdout:      &out,
		Stdin:       strings.NewReader(stdin),
		GroupOutput: true,
	})
	return out.String(), err
}

func TestFunctionsReturnPaths(t *testing.T) {
	// FOUND YR returns a value; GTFO returns NOOB; falling off returns IT.
	src := `HAI 1.2
HOW IZ I found YR n
  FOUND YR SUM OF n AN 1
IF U SAY SO
HOW IZ I bail
  GTFO
  VISIBLE "unreachable"
IF U SAY SO
HOW IZ I fall
  PRODUKT OF 6 AN 7
IF U SAY SO
VISIBLE I IZ found YR 1 MKAY
VISIBLE I IZ bail MKAY
VISIBLE I IZ fall MKAY
KTHXBYE`
	want := "2\nNOOB\n42\n"
	if got := run(t, src, 1); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestRecursion(t *testing.T) {
	src := `HAI 1.2
HOW IZ I fib YR n
  SMALLR n AN 2, O RLY?
  YA RLY
    FOUND YR n
  OIC
  FOUND YR SUM OF I IZ fib YR DIFF OF n AN 1 MKAY AN I IZ fib YR DIFF OF n AN 2 MKAY
IF U SAY SO
VISIBLE I IZ fib YR 10 MKAY
KTHXBYE`
	if got := run(t, src, 1); got != "55\n" {
		t.Errorf("fib(10) = %q, want 55", got)
	}
}

func TestRunawayRecursionDiagnosed(t *testing.T) {
	src := `HAI 1.2
HOW IZ I forever YR n
  FOUND YR I IZ forever YR n MKAY
IF U SAY SO
VISIBLE I IZ forever YR 1 MKAY
KTHXBYE`
	_, err := tryRun(src, 1, "")
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Errorf("want call-depth diagnostic, got %v", err)
	}
}

func TestFunctionScopeIsIsolated(t *testing.T) {
	// Functions see only their params and locals, not main's variables.
	src := `HAI 1.2
I HAS A x ITZ 99
HOW IZ I peek
  FOUND YR x
IF U SAY SO
VISIBLE I IZ peek MKAY
KTHXBYE`
	tree, err := parser.Parse("t.lol", src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sema.Check(tree); err == nil {
		t.Fatal("function referencing main's variable should fail sema")
	}
}

func TestSwitchFallthroughAndDefault(t *testing.T) {
	src := `HAI 1.2
I HAS A color ITZ "R"
color, WTF?
OMG "R"
  VISIBLE "RED"
OMG "Y"
  VISIBLE "YELLOW"
  GTFO
OMG "G"
  VISIBLE "GREEN"
OMGWTF
  VISIBLE "BEIGE"
OIC
KTHXBYE`
	// "R" matches, falls into "Y", GTFO stops before "G"; default skipped.
	if got := run(t, src, 1); got != "RED\nYELLOW\n" {
		t.Errorf("got %q", got)
	}
}

func TestSwitchFallsOffLastCase(t *testing.T) {
	src := `HAI 1.2
I HAS A x ITZ 2
x, WTF?
OMG 1
  VISIBLE "one"
OMG 2
  VISIBLE "two"
OIC
VISIBLE "after"
KTHXBYE`
	if got := run(t, src, 1); got != "two\nafter\n" {
		t.Errorf("got %q", got)
	}
}

func TestNestedLoopsAndGtfo(t *testing.T) {
	src := `HAI 1.2
IM IN YR outer UPPIN YR i TIL BOTH SAEM i AN 3
  IM IN YR inner UPPIN YR j TIL BOTH SAEM j AN 10
    BOTH SAEM j AN 2, O RLY?
    YA RLY
      GTFO
    OIC
    VISIBLE SMOOSH i AN "-" AN j MKAY
  IM OUTTA YR inner
IM OUTTA YR outer
KTHXBYE`
	want := "0-0\n0-1\n1-0\n1-1\n2-0\n2-1\n"
	if got := run(t, src, 1); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestLoopCounterResetsPerLoop(t *testing.T) {
	// The paper's n-body reuses i across sequential loops, relying on the
	// counter resetting to 0 at each loop entry.
	src := `HAI 1.2
IM IN YR a UPPIN YR i TIL BOTH SAEM i AN 2
  VISIBLE i
IM OUTTA YR a
IM IN YR b UPPIN YR i TIL BOTH SAEM i AN 2
  VISIBLE i
IM OUTTA YR b
KTHXBYE`
	if got := run(t, src, 1); got != "0\n1\n0\n1\n" {
		t.Errorf("got %q", got)
	}
}

func TestDeclaredLoopVarVisibleAfterLoop(t *testing.T) {
	src := `HAI 1.2
I HAS A i ITZ 99
IM IN YR a UPPIN YR i TIL BOTH SAEM i AN 3
  VISIBLE "x"
IM OUTTA YR a
VISIBLE i
KTHXBYE`
	// A declared counter keeps its final value after the loop (3 here).
	if got := run(t, src, 1); got != "x\nx\nx\n3\n" {
		t.Errorf("got %q", got)
	}
}

func TestWileLoop(t *testing.T) {
	src := `HAI 1.2
I HAS A n ITZ 0
IM IN YR w UPPIN YR i WILE SMALLR i AN 4
  n R SUM OF n AN 10
IM OUTTA YR w
VISIBLE n
KTHXBYE`
	if got := run(t, src, 1); got != "40\n" {
		t.Errorf("got %q", got)
	}
}

func TestInfiniteLoopWithGtfo(t *testing.T) {
	src := `HAI 1.2
I HAS A n ITZ 0
IM IN YR forever
  n R SUM OF n AN 1
  BOTH SAEM n AN 5, O RLY?
  YA RLY
    GTFO
  OIC
IM OUTTA YR forever
VISIBLE n
KTHXBYE`
	if got := run(t, src, 1); got != "5\n" {
		t.Errorf("got %q", got)
	}
}

func TestItThreadsThroughConditionals(t *testing.T) {
	src := `HAI 1.2
SUM OF 1 AN 1
BOTH SAEM IT AN 2, O RLY?
YA RLY
  VISIBLE "two"
OIC
KTHXBYE`
	if got := run(t, src, 1); got != "two\n" {
		t.Errorf("got %q", got)
	}
}

func TestMebbeSetsIt(t *testing.T) {
	src := `HAI 1.2
FAIL, O RLY?
YA RLY
  VISIBLE "no"
MEBBE "truthy string"
  VISIBLE IT
OIC
KTHXBYE`
	if got := run(t, src, 1); got != "truthy string\n" {
		t.Errorf("got %q", got)
	}
}

func TestStaticTypingCastsOnAssign(t *testing.T) {
	src := `HAI 1.2
I HAS A x ITZ SRSLY A NUMBR
x R 3.99
VISIBLE x
x R "12"
VISIBLE x
KTHXBYE`
	if got := run(t, src, 1); got != "3\n12\n" {
		t.Errorf("got %q", got)
	}
}

func TestStaticTypingRejectsBadCast(t *testing.T) {
	src := `HAI 1.2
I HAS A x ITZ SRSLY A NUMBR
x R "kitteh"
KTHXBYE`
	_, err := tryRun(src, 1, "")
	if err == nil || !strings.Contains(err.Error(), "SRSLY") {
		t.Errorf("want static-cast failure, got %v", err)
	}
}

func TestYarnInterpolationReadsScope(t *testing.T) {
	src := `HAI 1.2
I HAS A name ITZ "CEILING CAT"
VISIBLE "O HAI :{name}!"
KTHXBYE`
	if got := run(t, src, 1); got != "O HAI CEILING CAT!\n" {
		t.Errorf("got %q", got)
	}
}

func TestSrsDynamicAccess(t *testing.T) {
	src := `HAI 1.2
I HAS A cheez ITZ 1
I HAS A burger ITZ 2
I HAS A which ITZ "cheez"
VISIBLE SRS which
SRS which R 10
VISIBLE cheez
KTHXBYE`
	if got := run(t, src, 1); got != "1\n10\n" {
		t.Errorf("got %q", got)
	}
}

func TestSrsUnknownNameDiagnosed(t *testing.T) {
	src := `HAI 1.2
I HAS A which ITZ "nope"
VISIBLE SRS which
KTHXBYE`
	_, err := tryRun(src, 1, "")
	if err == nil || !strings.Contains(err.Error(), "no such variable") {
		t.Errorf("want SRS diagnostic, got %v", err)
	}
}

// TestSrsNamesLoopCounter checks that SRS reads and writes an implicit
// loop counter inside its loop, and no longer names it after the loop.
func TestSrsNamesLoopCounter(t *testing.T) {
	src := `HAI 1.2
IM IN YR l UPPIN YR i TIL BIGGER i AN 4
  VISIBLE SRS "i"
  SRS "i" R SUM OF SRS "i" AN 1
IM OUTTA YR l
VISIBLE SRS "i"
KTHXBYE`
	out, err := tryRun(src, 1, "")
	if out != "0\n2\n4\n" || err == nil || !strings.Contains(err.Error(), `6:9: SRS "i": no such variable`) {
		t.Errorf("got %q, %v", out, err)
	}
}

func TestGimmehReadsLines(t *testing.T) {
	src := `HAI 1.2
I HAS A a
I HAS A b
GIMMEH a
GIMMEH b
VISIBLE b a
KTHXBYE`
	out, err := tryRun(src, 1, "first\nsecond\n")
	if err != nil {
		t.Fatal(err)
	}
	if out != "secondfirst\n" {
		t.Errorf("got %q", out)
	}
}

func TestVisibleBangSuppressesNewline(t *testing.T) {
	src := "HAI 1.2\nVISIBLE \"a\" !\nVISIBLE \"b\"\nKTHXBYE"
	if got := run(t, src, 1); got != "ab\n" {
		t.Errorf("got %q", got)
	}
}

func TestInvisibleRoutesToStderr(t *testing.T) {
	tree, err := parser.Parse("t.lol", "HAI 1.2\nINVISIBLE \"warn\"\nVISIBLE \"out\"\nKTHXBYE")
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if _, err := Run(info, Config{NP: 1, Stdout: &out, Stderr: &errw}); err != nil {
		t.Fatal(err)
	}
	if out.String() != "out\n" {
		t.Errorf("stdout = %q", out.String())
	}
	if errw.String() != "warn\n" {
		t.Errorf("stderr = %q", errw.String())
	}
}

func TestIsNowA(t *testing.T) {
	src := `HAI 1.2
I HAS A x ITZ "5"
x IS NOW A NUMBR
VISIBLE SUM OF x AN 5
x IS NOW A YARN
VISIBLE SMOOSH x AN "!" MKAY
KTHXBYE`
	// The SUM assigns IT, not x, so x is still 5 when recast to YARN.
	if got := run(t, src, 1); got != "10\n5!\n" {
		t.Errorf("got %q", got)
	}
}

func TestArrayOutOfBoundsDiagnosed(t *testing.T) {
	src := `HAI 1.2
I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 4
VISIBLE a'Z 4
KTHXBYE`
	_, err := tryRun(src, 1, "")
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("want index diagnostic, got %v", err)
	}
}

func TestDynamicArraySize(t *testing.T) {
	// "dynamically sized" arrays: THAR IZ takes any expression.
	src := `HAI 1.2
I HAS A n ITZ 3
I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ PRODUKT OF n AN 2
a'Z 5 R 42
VISIBLE a'Z 5
KTHXBYE`
	if got := run(t, src, 1); got != "42\n" {
		t.Errorf("got %q", got)
	}
}

func TestTxtTargetOutOfRangeDiagnosed(t *testing.T) {
	src := `HAI 1.2
WE HAS A x ITZ SRSLY A NUMBR
TXT MAH BFF 7, MAH x R UR x
KTHXBYE`
	_, err := tryRun(src, 2, "")
	if err == nil || !strings.Contains(err.Error(), "no such friend") {
		t.Errorf("want range diagnostic, got %v", err)
	}
}

func TestNestedPredicationInnermostWins(t *testing.T) {
	src := `HAI 1.2
WE HAS A x ITZ SRSLY A NUMBR
x R PRODUKT OF ME AN 10
HUGZ
I HAS A got ITZ A NUMBR
TXT MAH BFF 1 AN STUFF
  TXT MAH BFF 2, got R UR x
TTYL
BOTH SAEM ME AN 0, O RLY?
YA RLY
  VISIBLE got
OIC
KTHXBYE`
	if got := run(t, src, 3); got != "20\n" {
		t.Errorf("nested predication read %q, want PE 2's value 20", got)
	}
}

func TestLockReleaseWithoutHoldFromLolcode(t *testing.T) {
	src := `HAI 1.2
WE HAS A x ITZ A NUMBR AN IM SHARIN IT
DUN MESIN WIF x
KTHXBYE`
	_, err := tryRun(src, 1, "")
	if err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Errorf("want lock diagnostic, got %v", err)
	}
}

func TestAsymmetricAllocFromLolcode(t *testing.T) {
	// A PE-dependent symmetric size is the classic SPMD bug; the runtime
	// must catch it rather than silently diverge.
	src := `HAI 1.2
WE HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ SUM OF ME AN 4
KTHXBYE`
	_, err := tryRun(src, 2, "")
	if err == nil || !strings.Contains(err.Error(), "asymmetric") {
		t.Errorf("want asymmetric-allocation diagnostic, got %v", err)
	}
}

func TestWhatevrDeterministicPerSeed(t *testing.T) {
	src := `HAI 1.2
VISIBLE WHATEVR
VISIBLE WHATEVAR
KTHXBYE`
	a := run(t, src, 1)
	b := run(t, src, 1)
	if a != b {
		t.Errorf("same seed produced different randomness: %q vs %q", a, b)
	}
}

func TestDivisionByZeroDiagnosed(t *testing.T) {
	_, err := tryRun("HAI 1.2\nVISIBLE QUOSHUNT OF 1 AN 0\nKTHXBYE", 1, "")
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("want division diagnostic, got %v", err)
	}
}

func TestRuntimeErrorCarriesPosition(t *testing.T) {
	_, err := tryRun("HAI 1.2\nVISIBLE QUOSHUNT OF 1 AN 0\nKTHXBYE", 1, "")
	if err == nil || !strings.Contains(err.Error(), "t.lol:2:") {
		t.Errorf("error should carry source position, got %v", err)
	}
}
