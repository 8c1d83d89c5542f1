package vm

import (
	"errors"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/backend"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/value"
)

func compileSrc(t *testing.T, src string) *Program {
	t.Helper()
	tree, err := parser.Parse("test.lol", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(tree)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	p, err := Compile(info)
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	return p
}

func runSrc(t *testing.T, src string, np int) string {
	t.Helper()
	p := compileSrc(t, src)
	var out strings.Builder
	if _, err := p.Run(backend.Config{NP: np, Seed: 7, Stdout: &out, GroupOutput: true}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

// branchTarget returns the target of a stack or word branch.
func branchTarget(in Instr) (int, bool) {
	switch in.Op {
	case OpJump, OpJumpTrue, OpJumpFalse, OpJumpTrueKeep, OpJumpFalseKeep:
		return in.A, true
	case OpWJumpBiggerI, OpWJumpSmallrI, OpWJumpBothSaemI, OpWJumpDiffrintI,
		OpWJumpBiggerF, OpWJumpSmallrF, OpWJumpBothSaemF, OpWJumpDiffrintF,
		OpWJumpIT, OpWIncJump:
		return in.D, true
	}
	return 0, false
}

// checkJumpTargets reports every branch of p left at its -1 placeholder
// or aimed outside its chunk.
func checkJumpTargets(t *testing.T, name string, p *Program) {
	t.Helper()
	for _, chunk := range append([]*Chunk{p.Main}, p.Funcs...) {
		for i, in := range chunk.Code {
			if target, ok := branchTarget(in); ok && (target < 0 || target > len(chunk.Code)) {
				t.Errorf("%s: %s[%d]: %v has unpatched or out-of-range target %d",
					name, chunk.Name, i, in.Op, target)
			}
		}
	}
}

// TestJumpPatchingResolved checks the compile-time invariant behind every
// control-flow construct: no emitted jump, stack or word branch, may keep
// its -1 placeholder, and every target must land inside the chunk. It
// checks too that the O RLY? and MEBBE below, typed comparisons of a word
// counter, are IT branches.
func TestJumpPatchingResolved(t *testing.T) {
	p := compileSrc(t, `HAI 1.2
HOW IZ I pick YR n
  n, WTF?
  OMG 1
    FOUND YR "wan"
  OMG 2
    VISIBLE "fallin"
  OMG 3
    GTFO
  OMGWTF
    FOUND YR "lots"
  OIC
  FOUND YR "fell out"
IF U SAY SO
I HAS A total ITZ 0
IM IN YR outer UPPIN YR i TIL BOTH SAEM i AN 3
  IM IN YR inner UPPIN YR j TIL BOTH SAEM j AN 3
    BOTH SAEM j AN 2, O RLY?
    YA RLY
      GTFO
    MEBBE BOTH SAEM j AN 1
      total R SUM OF total AN 10
    NO WAI
      total R SUM OF total AN 1
    OIC
  IM OUTTA YR inner
IM OUTTA YR outer
VISIBLE total
VISIBLE I IZ pick YR 1 MKAY
KTHXBYE`)
	checkJumpTargets(t, "constructs", p)
	itBranches := 0
	for _, chunk := range append([]*Chunk{p.Main}, p.Funcs...) {
		for _, in := range chunk.Code {
			if in.Op == OpWJumpIT {
				itBranches++
			}
		}
	}
	if itBranches != 2 {
		t.Errorf("constructs: %d IT branches, want 2\n%s", itBranches, Disassemble(p))
	}
}

// TestLoopBreakAndCounter pins the loop protocol: counters restart at 0,
// GTFO breaks only the innermost construct, and a declared counter keeps
// its post-loop value (3 iterations x 11 = the mixed MEBBE arithmetic).
func TestLoopBreakAndCounter(t *testing.T) {
	got := runSrc(t, `HAI 1.2
I HAS A total ITZ 0
IM IN YR outer UPPIN YR i TIL BOTH SAEM i AN 3
  IM IN YR inner UPPIN YR j TIL BOTH SAEM j AN 100
    BOTH SAEM j AN 2, O RLY?
    YA RLY
      GTFO
    NO WAI
      total R SUM OF total AN 1
    OIC
  IM OUTTA YR inner
IM OUTTA YR outer
VISIBLE total
KTHXBYE`, 1)
	if got != "6\n" {
		t.Errorf("output = %q, want %q (2 inner iterations x 3 outer)", got, "6\n")
	}
}

// TestNestedImplicitCounterRestored checks the slot save/restore the
// compiler emits around implicit loop counters: an inner loop reusing the
// outer loop's implicit counter name runs on the same slot but must
// restore the outer value on exit, or the outer loop never terminates.
func TestNestedImplicitCounterRestored(t *testing.T) {
	got := runSrc(t, `HAI 1.2
IM IN YR outer UPPIN YR i TIL BOTH SAEM i AN 2
  VISIBLE "outer " i
  IM IN YR inner UPPIN YR i TIL BOTH SAEM i AN 3
    VISIBLE "inner " i
  IM OUTTA YR inner
IM OUTTA YR outer
KTHXBYE`, 1)
	want := "outer 0\ninner 0\ninner 1\ninner 2\nouter 1\ninner 0\ninner 1\ninner 2\n"
	if got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

// TestBreakUnwindsPredication is the pred-stack analog of slot unwinding:
// a GTFO inside TXT MAH BFF ... TTYL inside a loop must pop the
// predication entry before jumping out, or the next UR reference would
// address a stale target. The program breaks out of a predicated block on
// PE 1, then re-predicates on PE 0 and reads UR x; the compiler must have
// emitted a pred.pop before the break jump.
func TestBreakUnwindsPredication(t *testing.T) {
	src := `HAI 1.2
WE HAS A x ITZ SRSLY A NUMBR
x R PRODUKT OF SUM OF ME AN 1 AN 7
HUGZ
I HAS A got ITZ 0
IM IN YR tryin UPPIN YR i TIL BOTH SAEM i AN 4
  TXT MAH BFF 1 AN STUFF
    GTFO
  TTYL
IM OUTTA YR tryin
TXT MAH BFF 0, got R UR x
BOTH SAEM ME AN 0, O RLY?
YA RLY
  VISIBLE got
OIC
KTHXBYE`
	got := runSrc(t, src, 2)
	if got != "7\n" {
		t.Errorf("output = %q, want %q (UR x must address PE 0 after the break)", got, "7\n")
	}

	// And the emitted bytecode must carry the unwinding explicitly: a
	// pred.pop immediately before a jump that is not the block's own
	// balanced pop.
	p := compileSrc(t, src)
	found := false
	for i, in := range p.Main.Code {
		if in.Op == OpPredPop && i+1 < len(p.Main.Code) && p.Main.Code[i+1].Op == OpJump {
			found = true
			break
		}
	}
	if !found {
		t.Error("no pred.pop emitted before the break jump out of the TXT block")
	}
}

// TestFunctionFrames checks call/return through the frame machinery:
// recursion, GTFO-as-return (NOOB), and fall-off-the-end returning IT.
func TestFunctionFrames(t *testing.T) {
	got := runSrc(t, `HAI 1.2
HOW IZ I fib YR n
  SMALLR n AN 2, O RLY?
  YA RLY
    FOUND YR n
  OIC
  FOUND YR SUM OF I IZ fib YR DIFF OF n AN 1 MKAY AN I IZ fib YR DIFF OF n AN 2 MKAY
IF U SAY SO
HOW IZ I bail YR n
  GTFO
IF U SAY SO
HOW IZ I implicit YR n
  PRODUKT OF n AN n
IF U SAY SO
VISIBLE I IZ fib YR 10 MKAY
VISIBLE I IZ bail YR 1 MKAY
VISIBLE I IZ implicit YR 6 MKAY
KTHXBYE`, 1)
	want := "55\nNOOB\n36\n"
	if got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

// TestConstPoolInterned checks constants are deduplicated per chunk: a
// typed constant once in the word template, a dynamic one once in the
// value pool.
func TestConstPoolInterned(t *testing.T) {
	p := compileSrc(t, `HAI 1.2
VISIBLE SUM OF 5 AN SUM OF 5 AN SUM OF 5 AN 5
VISIBLE 5 " " 5
KTHXBYE`)
	words := 0
	for i, k := range p.Main.wkind {
		if k == value.Numbr && int64(p.Main.Words[i]) == 5 {
			words++
		}
	}
	if words != 1 {
		t.Errorf("constant 5 interned %d times in the word template, want 1", words)
	}
	if len(p.Main.Words) != p.Main.NWords {
		t.Errorf("template holds %d words, NWords is %d", len(p.Main.Words), p.Main.NWords)
	}
	fives := 0
	for _, c := range p.Main.Consts {
		if c.Kind() == value.Numbr && c.Numbr() == 5 {
			fives++
		}
	}
	if fives != 1 {
		t.Errorf("constant 5 interned %d times in the value pool, want 1", fives)
	}
}

// TestInstrSize pins Instr at 88 bytes: W lives in the padding after Op.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 88 {
		t.Errorf("Instr is %d bytes, want 88", n)
	}
}

// TestWeightNeverWraps checks that a long chain of identity MAEKs, whose
// casts all fold onto the op that reads the chain, still meters one step
// per cast: the program completes under a budget of exactly its stack
// instruction count and is killed one step below it.
func TestWeightNeverWraps(t *testing.T) {
	const casts = 70_000 // past uint16
	src := "HAI 1.2\nI HAS A x ITZ 1\nVISIBLE " + strings.Repeat("MAEK ", casts) + "x" + strings.Repeat(" A NUMBR", casts) + "\nKTHXBYE\n"
	p := compileSrc(t, src)
	// const and store for the Decl; the load, the casts and VISIBLE; halt.
	steps := int64(2 + 1 + casts + 1 + 1)
	run := func(budget int64) error {
		var out strings.Builder
		_, err := p.Run(backend.Config{NP: 1, Stdout: &out, StepBudget: budget})
		return err
	}
	if err := run(steps); err != nil {
		t.Errorf("budget %d: %v", steps, err)
	}
	if err := run(steps - 1); !errors.Is(err, backend.ErrStepBudget) {
		t.Errorf("budget %d: error = %v, want ErrStepBudget", steps-1, err)
	}
}

// TestSrsReadsWordSymbols reads and writes word symbols through SRS.
func TestSrsReadsWordSymbols(t *testing.T) {
	got := runSrc(t, `HAI 1.2
I HAS A n ITZ 4
I HAS A f ITZ SRSLY A NUMBAR AN ITZ 1.5
n R SUM OF n AN 1
VISIBLE SRS "n" " " SRS "f"
SRS "f" R 7
VISIBLE f " " SUM OF f AN n
KTHXBYE`, 1)
	if want := "5 1.50\n7.00 12.00\n"; got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}

// TestEngineRegistered checks the vm engine is selectable by name.
func TestEngineRegistered(t *testing.T) {
	eng, err := backend.ByName("vm")
	if err != nil {
		t.Fatal(err)
	}
	if eng.Name() != "vm" {
		t.Errorf("engine name = %q, want vm", eng.Name())
	}
}
