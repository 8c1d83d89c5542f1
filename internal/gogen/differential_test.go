package gogen

import (
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/native/child"
	"repro/internal/progen"
)

// kindEdges are the programs where a static-kind decision could go
// wrong: each one either must keep a variable boxed or checks that a raw
// one behaves like its boxed twin. TestKindEdgesInProcess runs them on
// every in-process engine, TestGogenProgenDifferential natively.
var kindEdges = []struct {
	name, src, stdin string
}{
	{name: "noob_after_oic", src: `HAI 1.2
BOTH SAEM 1 AN 2, O RLY?
YA RLY
  I HAS A x ITZ SRSLY A NUMBR AN ITZ 5
  I HAS A y ITZ 5
OIC
VISIBLE x
VISIBLE y
VISIBLE "w=:{w}"
I HAS A w ITZ 3
VISIBLE "w=:{w}"
KTHXBYE`},
	{name: "numbr_then_numbar", src: `HAI 1.2
I HAS A n ITZ 3
I HAS A m ITZ SUM OF n AN 1
n R SUM OF n AN 1
VISIBLE n " " m
n R QUOSHUNT OF n AN 8.0
VISIBLE n " " m
KTHXBYE`},
	{name: "smoosh_yarn", src: `HAI 1.2
I HAS A s ITZ 4
VISIBLE SUM OF s AN 1
s R SMOOSH "s" AN s MKAY
VISIBLE s
KTHXBYE`},
	{name: "gimmeh_target", stdin: "4.5\n4.5\n4.5\n4.5\n", src: `HAI 1.2
I HAS A g ITZ 1
GIMMEH g
VISIBLE g
VISIBLE SUM OF g AN 1
KTHXBYE`},
	{name: "is_now_a", src: `HAI 1.2
I HAS A c ITZ 7
c IS NOW A NUMBAR
VISIBLE c
c R SUM OF c AN 1
VISIBLE c
KTHXBYE`},
	{name: "decl_in_zero_trip_loop", src: `HAI 1.2
IM IN YR z UPPIN YR k TIL BOTH SAEM k AN 0
  I HAS A d ITZ 9
IM OUTTA YR z
VISIBLE d
IM IN YR l UPPIN YR k TIL BOTH SAEM k AN 3
  I HAS A acc ITZ 10
  acc R SUM OF acc AN k
  VISIBLE acc
IM OUTTA YR l
KTHXBYE`},
	{name: "counters", src: `HAI 1.2
I HAS A i ITZ 5
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3
  VISIBLE i
IM OUTTA YR l
VISIBLE i
I HAS A f ITZ 1.5
IM IN YR l UPPIN YR f TIL BOTH SAEM f AN 2
IM OUTTA YR l
VISIBLE f
I HAS A sf ITZ SRSLY A NUMBAR AN ITZ 0.5
IM IN YR l UPPIN YR sf TIL BOTH SAEM sf AN 2
IM OUTTA YR l
VISIBLE sf
KTHXBYE`},
	{name: "numbr_overflow", src: `HAI 1.2
I HAS A big ITZ 9223372036854775807
big R SUM OF big AN 1
VISIBLE big
I HAS A p ITZ PRODUKT OF 4611686018427387904 AN 4
VISIBLE p
KTHXBYE`},
	{name: "quoshunt_by_zero", src: `HAI 1.2
I HAS A q ITZ 10
q R SUM OF q AN ME
VISIBLE "q=:{q}"
VISIBLE QUOSHUNT OF q AN 0
VISIBLE "unreached"
KTHXBYE`},
	{name: "srsly_numbar_after_oic", src: `HAI 1.2
BOTH SAEM 1 AN 2, O RLY?
YA RLY
  I HAS A x ITZ SRSLY A NUMBAR AN ITZ 5.0
OIC
VISIBLE SUM OF x AN 1.5
KTHXBYE`},
	{name: "srsly_numbr_after_zero_trip", src: `HAI 1.2
IM IN YR l UPPIN YR k TIL BOTH SAEM k AN 0
  I HAS A z ITZ SRSLY A NUMBR AN ITZ 7
IM OUTTA YR l
VISIBLE SUM OF z AN 1
KTHXBYE`},
	{name: "srs_write", src: `HAI 1.2
I HAS A n ITZ 3
I HAS A name ITZ "n"
SRS name R "abc"
VISIBLE n
VISIBLE SUM OF n AN 1
KTHXBYE`},
	// A whole-array store into a private array's slot before its Decl
	// ran, or after a scalar store replaced the array, puts an array of
	// another element type there: a'Z 0 is a NUMBAR in both, and f'Z 0
	// stores into n's NUMBRS.
	{name: "array_store_after_oic", src: `HAI 1.2
I HAS A b ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 3
b'Z 0 R 2.5
b'Z 2 R 7.0
BOTH SAEM 1 AN 2, O RLY?
YA RLY
  I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 1
OIC
a R b
VISIBLE SUM OF a'Z 0 AN 1
VISIBLE b'Z a'Z 0
KTHXBYE`},
	{name: "array_store_after_scalar", src: `HAI 1.2
I HAS A b ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 1
b'Z 0 R 2.5
I HAS A a ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 1
a R 5
a R b
VISIBLE SUM OF a'Z 0 AN 1
I HAS A n ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 1
I HAS A f ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 1
f R 5
f R n
f'Z 0 R 2.5
VISIBLE n'Z 0
KTHXBYE`},
	// The pos_ edges fail inside an operation whose operands the VM
	// reads within one instruction; the error must name the operator.
	{name: "pos_quoshunt", src: `HAI 1.2
I HAS A z ITZ 7
I HAS A y ITZ 0
VISIBLE QUOSHUNT OF z AN y
KTHXBYE`},
	{name: "pos_yarn_in_loop", src: `HAI 1.2
I HAS A w ITZ "abc"
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3
  I HAS A q ITZ SUM OF w AN 1
  VISIBLE q
IM OUTTA YR l
KTHXBYE`},
	{name: "pos_store_cast", src: `HAI 1.2
I HAS A w ITZ "abc"
I HAS A x ITZ SRSLY A NUMBAR AN ITZ 1.5
x R PRODUKT OF w AN 2
VISIBLE x
KTHXBYE`},
	{name: "pos_elem_binary", src: `HAI 1.2
I HAS A s ITZ "abc"
I HAS A a ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 3
I HAS A k ITZ 1
VISIBLE SUM OF s AN a'Z k
KTHXBYE`},
	{name: "pos_cmp_head", src: `HAI 1.2
I HAS A w ITZ "abc"
IM IN YR l UPPIN YR i TIL BIGGER i AN w
  VISIBLE i
IM OUTTA YR l
KTHXBYE`},
	// A TXT MAH BFF target out of range fails at the target.
	{name: "pred_target_pos", src: `HAI 1.2
WE HAS A x ITZ SRSLY A NUMBR
TXT MAH BFF MAH FRENZ, UR x R 1
KTHXBYE`},
	// A subscript that is not a NUMBR fails with the array-index context.
	{name: "index_yarn", src: `HAI 1.2
I HAS A arr ITZ LOTZ A NUMBRS AN THAR IZ 2
VISIBLE arr'Z "x"
KTHXBYE`},
	// An SRS store into a SRSLY private casts with the assignment's
	// context; into a private array it copies, as R does.
	{name: "srs_srsly_cast", src: `HAI 1.2
I HAS A f ITZ SRSLY A NUMBAR AN ITZ 1.5
SRS "f" R "abc"
VISIBLE f
KTHXBYE`},
	{name: "srs_array_copy", src: `HAI 1.2
I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 1
I HAS A b ITZ LOTZ A NUMBRS AN THAR IZ 1
I HAS A c ITZ LOTZ A NUMBARS AN THAR IZ 1
b'Z 0 R 7
SRS "a" R b
b'Z 0 R 9
VISIBLE a'Z 0 " " b'Z 0
SRS "a" R c
VISIBLE a'Z 0
KTHXBYE`},
	// SRS and :{var} read word symbols, an inferred NUMBR and a SRSLY
	// NUMBAR, through their words; before its declaration SRS reads NOOB.
	{name: "srs_read_word", src: `HAI 1.2
VISIBLE SRS "n"
I HAS A n ITZ 4
I HAS A f ITZ SRSLY A NUMBAR AN ITZ 1.5
n R SUM OF n AN 1
VISIBLE SRS "n" " " SRS "f"
VISIBLE "n=:{n} f=:{f}"
KTHXBYE`},
	// SRS reads and writes an implicit counter inside its loop, and no
	// longer names it once the loop has ended.
	{name: "srs_counter", src: `HAI 1.2
IM IN YR l UPPIN YR i TIL BIGGER i AN 4
  VISIBLE SRS "i"
  SRS "i" R SUM OF SRS "i" AN 1
  VISIBLE "i=:{i}"
IM OUTTA YR l
VISIBLE SRS "i"
KTHXBYE`},
	// A typed comparison an O RLY? tests, or a MEBBE condition, stores
	// its TROOF in IT: read in every arm and after OIC, in the main frame
	// and in a function's own, with NUMBR and NUMBAR operands mixed.
	{name: "it_branch", src: `HAI 1.2
HOW IZ I pick YR n
  I HAS A k ITZ SRSLY A NUMBR AN ITZ n
  I HAS A f ITZ 2.5
  BIGGER k AN f, O RLY?
  YA RLY
    VISIBLE "big " IT
  MEBBE BOTH SAEM k AN 2
    VISIBLE "two " IT
  NO WAI
    VISIBLE "small " IT
  OIC
  FOUND YR IT
IF U SAY SO
I HAS A a ITZ 3
I HAS A b ITZ 1.5
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4
  SMALLR i AN b, O RLY?
  YA RLY
    VISIBLE "lo :{i} " IT
  MEBBE DIFFRINT i AN a
    VISIBLE "mid :{i} " IT
  NO WAI
    VISIBLE "hi :{i} " IT
  OIC
  VISIBLE "after " IT
  VISIBLE I IZ pick YR i MKAY " " IT
IM OUTTA YR l
KTHXBYE`},
	// A SRSLY NUMBR private read after a recursive call holds its own
	// frame's value.
	{name: "recursive_word", src: `HAI 1.2
HOW IZ I sumto YR k
  I HAS A acc ITZ SRSLY A NUMBR AN ITZ k
  BOTH SAEM k AN 0, O RLY?
  YA RLY
    FOUND YR 0
  OIC
  acc R SUM OF acc AN MAEK I IZ sumto YR DIFF OF k AN 1 MKAY A NUMBR
  FOUND YR acc
IF U SAY SO
VISIBLE I IZ sumto YR 5 MKAY
KTHXBYE`},
	// An inner loop counting the outer loop's implicit counter restores
	// it on exit, and :{i} reads the counter inside its own loop.
	{name: "nested_counter", src: `HAI 1.2
IM IN YR outer UPPIN YR i TIL BOTH SAEM i AN 2
  VISIBLE "outer " i
  IM IN YR inner UPPIN YR i TIL BOTH SAEM i AN 3
    VISIBLE "inner " i
  IM OUTTA YR inner
IM OUTTA YR outer
KTHXBYE`},
	// A body that declares its loop's implicit counter name again keeps
	// that declaration after the loop, while the loop counts, tests and
	// restores its own counter.
	{name: "counter_redeclared", src: `HAI 1.2
I HAS A t ITZ 0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3
  t R SUM OF t AN i
  I HAS A i ITZ 5
  i R SUM OF i AN t
IM OUTTA YR l
VISIBLE i " " t
KTHXBYE`},
	{name: "counter_interp", src: `HAI 1.2
IM IN YR outer UPPIN YR i TIL BOTH SAEM i AN 2
  VISIBLE "outer :{i}"
  IM IN YR inner UPPIN YR i TIL BOTH SAEM i AN 3
    VISIBLE "inner :{i}"
  IM OUTTA YR inner
IM OUTTA YR outer
KTHXBYE`},
}

// TestKindEdgesInProcess runs every edge on every registered in-process
// engine at NP 1 and 4 under a step budget, and requires interp's
// grouped output bytes, its ok/error outcome, and its runtime error
// message and position.
func TestKindEdgesInProcess(t *testing.T) {
	ref, err := backend.ByName("interp")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range kindEdges {
		prog, err := core.Parse(e.name+".lol", e.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", e.name, err)
		}
		for _, np := range []int{1, 4} {
			run := func(b backend.Backend) (out, msg string) {
				var buf strings.Builder
				_, err := b.Run(prog.Info, backend.Config{
					NP: np, Seed: 2017, Stdout: &buf, Stdin: strings.NewReader(e.stdin),
					GroupOutput: true, StepBudget: 1_000_000,
				})
				var re *backend.RuntimeError
				switch {
				case errors.As(err, &re):
					return buf.String(), "error: " + re.Pos.String() + ": " + re.Err.Error()
				case err != nil:
					return buf.String(), "error: " + err.Error()
				}
				return buf.String(), "ok"
			}
			wantOut, wantMsg := run(ref)
			for _, b := range backend.All() {
				if gotOut, gotMsg := run(b); gotOut != wantOut || gotMsg != wantMsg {
					t.Errorf("%s np %d: %s printed %q (%s), interp printed %q (%s)",
						e.name, np, b.Name(), gotOut, gotMsg, wantOut, wantMsg)
				}
			}
		}
	}
}

// TestGogenProgenDifferential runs generated programs and the edge table
// natively, each binary under the -serve protocol lolserv's native tier
// uses, and requires the interpreter's grouped output bytes and its
// ok/error outcome at NP 1 and 4. The programs are the size of serve's
// fresh programs; the edge table covers declarations that do not
// dominate their reads, kinds that change after declaration, and the
// failure paths of raw arithmetic.
func TestGogenProgenDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("go toolchain round trip is slow for -short")
	}
	const seed = 2017
	type kase struct {
		name, src, stdin string
		prog             *core.Program
	}
	var cases []kase
	for i := 0; i < 24; i++ {
		cases = append(cases, kase{name: fmt.Sprintf("progen%02d", i), src: progen.New(int64(i)).Program(40)})
	}
	for _, e := range kindEdges {
		cases = append(cases, kase{name: e.name, src: e.src, stdin: e.stdin})
	}
	mains := map[string][]byte{}
	for i := range cases {
		c := &cases[i]
		prog, err := core.Parse(c.name+".lol", c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", c.name, err, c.src)
		}
		out, err := Emit(prog.Info)
		if err != nil {
			if strings.Contains(err.Error(), "SRS") && strings.Contains(c.src, "SRS") {
				continue // the documented static-lowering limitation
			}
			t.Fatalf("%s: emit: %v\n%s", c.name, err, c.src)
		}
		c.prog = prog
		mains[c.name] = out
	}
	binDir := buildMains(t, "gen-diff-", mains)

	for _, c := range cases {
		if c.prog == nil {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, np := range []int{1, 4} {
				cmd := exec.Command(filepath.Join(binDir, c.name),
					"-serve", "-no-sandbox", "-np", fmt.Sprint(np), "-seed", fmt.Sprint(seed))
				cmd.Stdin = strings.NewReader(c.stdin)
				var stderr strings.Builder
				cmd.Stderr = &stderr
				raw, err := cmd.Output()
				if err != nil {
					t.Fatalf("np %d: binary failed: %v\n%s", np, err, stderr.String())
				}
				var got child.Result
				if err := json.Unmarshal(raw, &got); err != nil {
					t.Fatalf("np %d: undecodable result %q: %v", np, raw, err)
				}

				var want strings.Builder
				_, werr := c.prog.Run(core.RunConfig{Backend: core.BackendInterp, Config: interp.Config{
					NP: np, Seed: seed, Stdout: &want,
					Stdin: strings.NewReader(c.stdin), GroupOutput: true,
				}})
				if got.OK != (werr == nil) {
					t.Errorf("np %d: native ok=%v (%s), interp error %v\n--- program ---\n%s",
						np, got.OK, got.Error, werr, c.src)
				}
				if got.Output != want.String() {
					t.Errorf("np %d: native output diverges from interp:\nnative:\n%s\ninterp:\n%s\n--- program ---\n%s",
						np, got.Output, want.String(), c.src)
				}
			}
		})
	}
}
