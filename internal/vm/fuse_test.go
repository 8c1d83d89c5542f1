package vm

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/value"
)

func compileSrcOpts(t *testing.T, src string, opts Options) *Program {
	t.Helper()
	tree, err := parser.Parse("test.lol", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(tree)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	p, err := CompileOpts(info, opts)
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	return p
}

func runProg(t *testing.T, p *Program, np int) string {
	t.Helper()
	var out strings.Builder
	if _, err := p.Run(backend.Config{NP: np, Seed: 7, Stdout: &out, GroupOutput: true}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

// fusionPrograms covers every fused shape plus the control-flow hazards
// the pass must respect: jump targets inside expressions (switch
// fallthrough, short-circuit), predication boundaries, loop heads of both
// the slot-const and slot-slot form, and SRSLY-cast stores.
var fusionPrograms = map[string]string{
	"arith-loop": `HAI 1.2
I HAS A total ITZ 0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 20
  total R SUM OF total AN PRODUKT OF i AN 3
  total R MOD OF total AN 1000
IM OUTTA YR l
VISIBLE total
KTHXBYE`,

	"slot-slot-head": `HAI 1.2
I HAS A n ITZ 12
I HAS A acc ITZ SRSLY A NUMBAR AN ITZ 0.0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN n
  acc R SUM OF acc AN QUOSHUNT OF 1.0 AN SUM OF i AN 1
IM OUTTA YR l
VISIBLE acc
KTHXBYE`,

	"array-elem-arith": `HAI 1.2
I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 8
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8
  a'Z i R PRODUKT OF i AN i
IM OUTTA YR l
I HAS A sum ITZ 0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8
  sum R SUM OF sum AN a'Z i
IM OUTTA YR l
VISIBLE sum
KTHXBYE`,

	"srsly-cast-store": `HAI 1.2
I HAS A x ITZ SRSLY A NUMBAR AN ITZ 1.5
I HAS A k ITZ SRSLY A NUMBR AN ITZ 0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10
  x R PRODUKT OF x AN 1.25
  k R SUM OF k AN 2
IM OUTTA YR l
VISIBLE x
VISIBLE k
KTHXBYE`,

	"wile-head": `HAI 1.2
I HAS A i ITZ 0
IM IN YR l WILE SMALLR i AN 9
  i R SUM OF i AN 2
IM OUTTA YR l
VISIBLE i
KTHXBYE`,

	"switch-fallthrough": `HAI 1.2
I HAS A tally ITZ 0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 6
  MOD OF i AN 3, WTF?
  OMG 0
    tally R SUM OF tally AN 100
  OMG 1
    tally R SUM OF tally AN 10
    GTFO
  OMG 2
    tally R SUM OF tally AN 1
    GTFO
  OIC
IM OUTTA YR l
VISIBLE tally
KTHXBYE`,

	"short-circuit": `HAI 1.2
I HAS A hits ITZ 0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10
  BOTH OF SMALLR 2 AN i AN SMALLR i AN 8, O RLY?
  YA RLY
    hits R SUM OF hits AN 1
  OIC
IM OUTTA YR l
VISIBLE hits
KTHXBYE`,

	"predicated-store-loop": `HAI 1.2
WE HAS A counts ITZ LOTZ A NUMBRS AN THAR IZ 4 AN IM SHARIN IT
HUGZ
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4
  TXT MAH BFF MOD OF SUM OF ME AN i AN MAH FRENZ AN STUFF
    UR counts'Z i R SUM OF PRODUKT OF ME AN 10 AN i
  TTYL
IM OUTTA YR l
HUGZ
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4
  VISIBLE SMOOSH ME AN "-" AN counts'Z i MKAY
IM OUTTA YR l
KTHXBYE`,

	"func-calls-in-loop": `HAI 1.2
HOW IZ I triple YR n
  FOUND YR PRODUKT OF n AN 3
IF U SAY SO
I HAS A total ITZ 0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 8
  total R SUM OF total AN I IZ triple YR i MKAY
IM OUTTA YR l
VISIBLE total
KTHXBYE`,
}

// boxedSuffix names the twin of a fusionPrograms entry whose privates
// and counters sema leaves boxed, so its arithmetic stays dynamic stack
// code for the fusion pass to rewrite (the original's typed code is
// word ops, which no pattern matches).
const boxedSuffix = "-boxed"

// boxedTwin rewrites src so sema holds none of its scalars in words: a
// private declared with a value is declared bare and then assigned, a
// SRSLY one is declared under an O RLY? so its Decl does not dominate
// its reads, and every implicit loop counter is declared bare up front.
func boxedTwin(src string) string {
	decl := regexp.MustCompile(`^(\s*)I HAS A (\w+) ITZ (.+)$`)
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		m := decl.FindStringSubmatch(line)
		switch {
		case m == nil || strings.Contains(m[3], "LOTZ"):
			b.WriteString(line + "\n")
		case strings.HasPrefix(m[3], "SRSLY"):
			fmt.Fprintf(&b, "%sWIN, O RLY?\n%sYA RLY\n%s\n%sOIC\n", m[1], m[1], line, m[1])
		default:
			fmt.Fprintf(&b, "%sI HAS A %s\n%s%s R %s\n", m[1], m[2], m[1], m[2], m[3])
		}
	}
	out := b.String()
	counters := map[string]bool{}
	for _, m := range regexp.MustCompile(`UPPIN YR (\w+)`).FindAllStringSubmatch(src, -1) {
		if !counters[m[1]] && !strings.Contains(src, "I HAS A "+m[1]+" ") {
			counters[m[1]] = true
			out = strings.Replace(out, "HAI 1.2\n", "HAI 1.2\nI HAS A "+m[1]+"\n", 1)
		}
	}
	return out
}

func init() {
	twins := map[string]string{}
	for name, src := range fusionPrograms {
		twins[name+boxedSuffix] = boxedTwin(src)
	}
	for name, src := range twins {
		fusionPrograms[name] = src
	}
}

// TestFusionDifferential runs every fusion-shape program fused and
// unfused at NP 1 and 4 and requires byte-identical grouped output. The
// boxed twins must shrink under fusion.
func TestFusionDifferential(t *testing.T) {
	for name, src := range fusionPrograms {
		t.Run(name, func(t *testing.T) {
			fused := compileSrcOpts(t, src, Options{})
			unfused := compileSrcOpts(t, src, Options{DisableFusion: true})
			for _, np := range []int{1, 4} {
				got, want := runProg(t, fused, np), runProg(t, unfused, np)
				if got != want {
					t.Errorf("np=%d fused output %q != unfused %q", np, got, want)
				}
			}
			if strings.HasSuffix(name, boxedSuffix) && len(fused.Main.Code) >= len(unfused.Main.Code) {
				t.Errorf("fusion did not shrink Main: %d >= %d", len(fused.Main.Code), len(unfused.Main.Code))
			}
		})
	}
}

// TestBoxedTwinsStayBoxed checks the twins exercise what they exist for:
// no word symbol in their main frame.
func TestBoxedTwinsStayBoxed(t *testing.T) {
	for name, src := range fusionPrograms {
		if !strings.HasSuffix(name, boxedSuffix) {
			continue
		}
		p := compileSrcOpts(t, src, Options{})
		for _, sym := range p.Main.Scope.Order {
			if isWord(sym) {
				t.Errorf("%s: %s is a word symbol\n%s", name, sym.Name, src)
			}
		}
	}
}

// TestFusionWeightSumInvariant is the static half of the metering
// contract: the step weights of a fused chunk must sum to those of the
// unfused chunk, so any executed path is accounted identically.
func TestFusionWeightSumInvariant(t *testing.T) {
	for name, src := range fusionPrograms {
		t.Run(name, func(t *testing.T) {
			fused := compileSrcOpts(t, src, Options{})
			unfused := compileSrcOpts(t, src, Options{DisableFusion: true})
			weight := func(c *Chunk) (sum int64) {
				for _, in := range c.Code {
					sum += int64(in.W)
				}
				return sum
			}
			check := func(f, u *Chunk) {
				if fw, uw := weight(f), weight(u); fw != uw {
					t.Errorf("chunk %s: fused weights sum to %d, unfused to %d", f.Name, fw, uw)
				}
			}
			check(fused.Main, unfused.Main)
			for i := range fused.Funcs {
				check(fused.Funcs[i], unfused.Funcs[i])
			}
		})
	}
}

// TestFusionPreservesPredication checks the S6 audit property directly:
// fusion must never consume an OpPredPush/OpPredPop, so their counts (and
// thus the predication-stack discipline) are identical pre- and
// post-fusion.
func TestFusionPreservesPredication(t *testing.T) {
	src := fusionPrograms["predicated-store-loop"]
	fused := compileSrcOpts(t, src, Options{})
	unfused := compileSrcOpts(t, src, Options{DisableFusion: true})
	count := func(c *Chunk, op Op) int {
		n := 0
		for _, in := range c.Code {
			if in.Op == op {
				n++
			}
		}
		return n
	}
	for _, op := range []Op{OpPredPush, OpPredPop} {
		if f, u := count(fused.Main, op), count(unfused.Main, op); f != u {
			t.Errorf("%v count changed under fusion: fused %d, unfused %d", op, f, u)
		}
	}
}

// TestFusionRespectsJumpTargets exercises the interior-target refusal on
// a hand-built chunk: a jump into the middle of a fusable sequence must
// block the patterns that would swallow the target, while a pattern
// *starting* at the target may still fuse.
func TestFusionRespectsJumpTargets(t *testing.T) {
	c := &Chunk{
		Name: "synthetic",
		Code: []Instr{
			{Op: OpLoadSlot, A: 1, W: 1},              // 0: quad/triple blocked by target at 2
			{Op: OpConst, A: 0, W: 1},                 // 1: pair blocked by target at 2
			{Op: OpBinary, A: int(value.OpSum), W: 1}, // 2: jump target; pair with 3 may fuse
			{Op: OpStoreSlot, A: 1, W: 1},             // 3
			{Op: OpJump, A: 2, W: 1},                  // 4
			{Op: OpHalt, W: 1},                        // 5
		},
		Consts: []value.Value{value.NewNumbr(1)},
	}
	fuseChunk(c)
	wantOps := []Op{OpLoadSlot, OpConst, OpFusedBinaryStoreSlot, OpJump, OpHalt}
	if len(c.Code) != len(wantOps) {
		t.Fatalf("fused code length = %d, want %d (%v)", len(c.Code), len(wantOps), c.Code)
	}
	for i, op := range wantOps {
		if c.Code[i].Op != op {
			t.Errorf("code[%d] = %v, want %v", i, c.Code[i].Op, op)
		}
	}
	if c.Code[3].A != 2 {
		t.Errorf("jump target remapped to %d, want 2 (the fused instruction)", c.Code[3].A)
	}
}

// TestFusedJumpTargetsInRange extends the jump-patching invariant to the
// fused and word branches: D must land inside the chunk after remapping.
func TestFusedJumpTargetsInRange(t *testing.T) {
	for name, src := range fusionPrograms {
		p := compileSrcOpts(t, src, Options{})
		for _, chunk := range append([]*Chunk{p.Main}, p.Funcs...) {
			for i, in := range chunk.Code {
				if tgt, ok := jumpTarget(&in); ok && (*tgt < 0 || *tgt > len(chunk.Code)) {
					t.Errorf("%s: %s[%d]: %v target %d out of range", name, chunk.Name, i, in.Op, *tgt)
				}
			}
		}
	}
}
