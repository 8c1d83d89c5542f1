package vm

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"repro/internal/backend"
	_ "repro/internal/interp" // the reference engine
	"repro/internal/sema"
)

// shapePrograms cover the shapes the compiler lowers — arithmetic
// statements, loop heads comparing a variable with a constant or another
// variable, element reads, SRSLY-cast stores, calls — and the control
// flow around them: jump targets inside expressions (switch fallthrough,
// short-circuit), predication boundaries and the O RLY? on IT.
var shapePrograms = map[string]string{
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

// boxedSuffix names the twin of a shapePrograms entry whose privates and
// counters sema leaves boxed, so the same shapes run as dynamic stack
// code (the original's typed code is word ops).
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
	for name, src := range shapePrograms {
		twins[name+boxedSuffix] = boxedTwin(src)
	}
	for name, src := range twins {
		shapePrograms[name] = src
	}
}

// outcome runs info on b at NP np and renders its grouped output and how
// it ended, with a runtime error's text and position.
func outcome(t *testing.T, b string, info *sema.Info, np int) string {
	t.Helper()
	e, err := backend.ByName(b)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	_, err = e.Run(info, backend.Config{NP: np, Seed: 7, Stdout: &out, GroupOutput: true, StepBudget: 1_000_000})
	var re *backend.RuntimeError
	switch {
	case errors.As(err, &re):
		return fmt.Sprintf("%s\nerror at %s: %v", out.String(), re.Pos, re.Err)
	case err != nil:
		return fmt.Sprintf("%s\nerror: %v", out.String(), err)
	}
	return out.String() + "\nok"
}

// TestShapesMatchInterp runs every shape program and its boxed twin on
// the vm and on interp at NP 1 and 4, and requires interp's bytes and
// outcome, with its error text and position.
func TestShapesMatchInterp(t *testing.T) {
	for name, src := range shapePrograms {
		t.Run(name, func(t *testing.T) {
			info := compileSrc(t, src).info
			for _, np := range []int{1, 4} {
				if got, want := outcome(t, "vm", info, np), outcome(t, "interp", info, np); got != want {
					t.Errorf("np=%d vm printed\n%s\ninterp printed\n%s", np, got, want)
				}
			}
		})
	}
}

// TestShapeJumpTargetsInRange checks that every stack and word branch the
// shape programs and their boxed twins compile to is patched and lands
// inside its chunk.
func TestShapeJumpTargetsInRange(t *testing.T) {
	for name, src := range shapePrograms {
		checkJumpTargets(t, name, compileSrc(t, src))
	}
}

// TestBoxedTwinsStayBoxed checks the twins exercise what they exist for:
// no word symbol in their main frame.
func TestBoxedTwinsStayBoxed(t *testing.T) {
	for name, src := range shapePrograms {
		if !strings.HasSuffix(name, boxedSuffix) {
			continue
		}
		p := compileSrc(t, src)
		for _, sym := range p.Main.Scope.Order {
			if isWord(sym) {
				t.Errorf("%s: %s is a word symbol\n%s", name, sym.Name, src)
			}
		}
	}
}
