package sema_test

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/value"
)

func checked(t *testing.T, src string) *sema.Info {
	t.Helper()
	prog, err := parser.Parse("t.lol", src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatalf("check: %v\n%s", err, src)
	}
	return info
}

// TestReps pins the Rep of every named symbol in small programs, one
// per rule in the package doc. Function symbols are named "f.x".
func TestReps(t *testing.T) {
	const (
		B = sema.RepBoxed
		I = sema.RepInt
		F = sema.RepFloat
	)
	cases := []struct {
		name, body string
		want       map[string]sema.Rep
	}{
		{"dominated SRSLY", `
I HAS A a ITZ SRSLY A NUMBR AN ITZ 1
I HAS A b ITZ SRSLY A NUMBAR
VISIBLE SUM OF a AN b`,
			map[string]sema.Rep{"IT": B, "a": I, "b": F}},
		{"undominated SRSLY and inferred", `
BOTH SAEM 1 AN 2, O RLY?
YA RLY
  I HAS A x ITZ SRSLY A NUMBAR AN ITZ 5.0
OIC
VISIBLE x
IM IN YR l UPPIN YR k TIL BOTH SAEM k AN 0
  I HAS A z ITZ SRSLY A NUMBR AN ITZ 7
IM OUTTA YR l
VISIBLE z
VISIBLE "w=:{w}"
I HAS A w ITZ 3
I HAS A d ITZ SUM OF d AN 1`,
			map[string]sema.Rep{"IT": B, "x": B, "k": I, "z": B, "w": B, "d": B}},
		{"counters", `
I HAS A sf ITZ SRSLY A NUMBAR AN ITZ 0.5
IM IN YR l UPPIN YR sf TIL BOTH SAEM sf AN 2
IM OUTTA YR l
I HAS A f ITZ 1.5
IM IN YR l UPPIN YR f TIL BOTH SAEM f AN 2
IM OUTTA YR l
I HAS A i ITZ 5
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3
IM OUTTA YR l
IM IN YR l UPPIN YR k TIL BOTH SAEM k AN 3
  k R SUM OF k AN 2
IM OUTTA YR l
IM IN YR l NERFIN YR j TIL BOTH SAEM j AN -3
  VISIBLE j
IM OUTTA YR l`,
			map[string]sema.Rep{"IT": B, "sf": B, "f": B, "i": I, "k": B, "j": I}},
		{"inferred", `
I HAS A n ITZ 3
n R SUM OF n AN 1
I HAS A m ITZ SUM OF n AN 1
I HAS A va ITZ 1
va R SUM OF va AN 1.5
I HAS A vc ITZ va
I HAS A vb ITZ 1.5
vb R SUM OF vb AN 1
I HAS A t ITZ A NUMBR
I HAS A c ITZ MAEK "2" A NUMBAR
I HAS A y ITZ "s"`,
			map[string]sema.Rep{"IT": B, "n": I, "m": I, "va": B, "vc": B, "vb": F,
				"t": I, "c": F, "y": B}},
		{"GIMMEH and IS NOW A targets", `
I HAS A g ITZ 1
GIMMEH g
I HAS A c ITZ 7
c IS NOW A NUMBAR
I HAS A sg ITZ SRSLY A NUMBR
GIMMEH sg
I HAS A sc ITZ SRSLY A NUMBAR AN ITZ 1.0
sc IS NOW A YARN`,
			map[string]sema.Rep{"IT": B, "g": B, "c": B, "sg": I, "sc": F}},
		{"SRS write", `
HOW IZ I f
  I HAS A fn ITZ 3
  I HAS A fs ITZ SRSLY A NUMBAR AN ITZ 1.0
  SRS "fn" R "abc"
  FOUND YR fn
IF U SAY SO
I HAS A n ITZ 3
I HAS A s ITZ SRSLY A NUMBR AN ITZ 1
I HAS A name ITZ "n"
SRS name R "abc"
IM IN YR l UPPIN YR j TIL BOTH SAEM j AN 3
IM OUTTA YR l`,
			map[string]sema.Rep{"IT": B, "n": B, "s": I, "name": B, "j": B,
				"f.IT": B, "f.fn": B, "f.fs": F}},
		{"SRS GIMMEH and IS NOW A", `
I HAS A n ITZ 3
GIMMEH SRS "n"
HOW IZ I f
  I HAS A m ITZ 3
  SRS "m" IS NOW A YARN
  FOUND YR m
IF U SAY SO`,
			map[string]sema.Rep{"IT": B, "n": B, "f.IT": B, "f.m": B}},
		{"function frame", `
HOW IZ I f YR p
  I HAS A loc ITZ 2
  loc R PRODUKT OF loc AN 3
  I HAS A lf ITZ SRSLY A NUMBAR AN ITZ p
  I HAS A fromp ITZ p
  FOUND YR loc
IF U SAY SO
I HAS A loc ITZ 2.5`,
			map[string]sema.Rep{"IT": B, "loc": F,
				"f.IT": B, "f.p": B, "f.loc": I, "f.lf": F, "f.fromp": B}},
		{"shared scalars, arrays, IT and params", `
WE HAS A sh ITZ SRSLY A NUMBR
WE HAS A sa ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4
WE HAS A sy ITZ SRSLY A YARN
I HAS A arr ITZ LOTZ A NUMBRS AN THAR IZ 4
I HAS A fromsh ITZ sh
I HAS A fromsa ITZ sa'Z 0
I HAS A fromarr ITZ arr'Z 1
I HAS A fromsy ITZ sy
I HAS A fromit ITZ IT
HOW IZ I f YR p
  FOUND YR p
IF U SAY SO`,
			map[string]sema.Rep{"IT": B, "sh": B, "sa": B, "sy": B, "arr": B,
				"fromsh": I, "fromsa": F, "fromarr": I, "fromsy": B, "fromit": B,
				"f.IT": B, "f.p": B}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			info := checked(t, "HAI 1.2"+c.body+"\nKTHXBYE")
			got := map[string]sema.Rep{}
			add := func(prefix string, scope *sema.Scope) {
				for _, sym := range scope.Order {
					name := prefix + sym.Name
					if _, dup := got[name]; dup {
						t.Fatalf("two symbols named %s; rename one", name)
					}
					got[name] = sym.Rep
				}
			}
			add("", info.Main)
			for name, fi := range info.Funcs {
				add(name+".", fi.Scope)
			}
			for name, rep := range got {
				want, ok := c.want[name]
				if !ok {
					t.Errorf("no expected Rep for %s (got %d)", name, rep)
				} else if rep != want {
					t.Errorf("%s: Rep %d, want %d", name, rep, want)
				}
			}
			for name := range c.want {
				if _, ok := got[name]; !ok {
					t.Errorf("no symbol %s", name)
				}
			}
		})
	}
}

// TestStaticKind checks StaticKind over literals, variables of each Rep,
// the arithmetic operators and MAEK. ok=false rows have no static
// numeric kind.
func TestStaticKind(t *testing.T) {
	const none = value.Noob
	cases := []struct {
		expr string
		want value.Kind
	}{
		{"1", value.Numbr},
		{"1.5", value.Numbar},
		{`"s"`, none},
		{"WIN", none},
		{"NOOB", none},
		{"ME", value.Numbr},
		{"MAH FRENZ", value.Numbr},
		{"WHATEVR", value.Numbr},
		{"WHATEVAR", value.Numbar},
		{"i", value.Numbr},
		{"f", value.Numbar},
		{"y", none},
		{"IT", none},
		{"sh", value.Numbar},
		{"na'Z 0", value.Numbr},
		{"ya'Z 0", none},
		{"SUM OF i AN 2", value.Numbr},
		{"DIFF OF i AN f", value.Numbar},
		{"PRODUKT OF i AN sh", value.Numbar},
		{"QUOSHUNT OF i AN 2", value.Numbr},
		{"MOD OF f AN 2", value.Numbar},
		{"BIGGR OF i AN 2", value.Numbr},
		{"SMALLR OF 2 AN f", value.Numbar},
		{"SUM OF i AN y", none},
		{"SUM OF y AN 1", none},
		{"BOTH SAEM i AN 1", none},
		{"BIGGER i AN 1", none},
		{"BOTH OF i AN 1", none},
		{"SQUAR OF i", value.Numbr},
		{"SQUAR OF f", value.Numbar},
		{"UNSQUAR OF i", value.Numbar},
		{"FLIP OF f", value.Numbar},
		{"FLIP OF y", none},
		{"NOT i", none},
		{"MAEK y A NUMBR", value.Numbr},
		{"MAEK i A NUMBAR", value.Numbar},
		{"MAEK i A YARN", none},
		{"SMOOSH i AN f MKAY", none},
		{"SUM OF SQUAR OF i AN QUOSHUNT OF f AN 2", value.Numbar},
	}
	for _, c := range cases {
		info := checked(t, `HAI 1.2
WE HAS A sh ITZ SRSLY A NUMBAR
I HAS A i ITZ SRSLY A NUMBR
I HAS A f ITZ 1.5
I HAS A y ITZ "s"
I HAS A na ITZ LOTZ A NUMBRS AN THAR IZ 1
I HAS A ya ITZ LOTZ A YARNS AN THAR IZ 1
VISIBLE `+c.expr+`
KTHXBYE`)
		body := info.Prog.Body
		e := body[len(body)-1].(*ast.Visible).Args[0]
		k, ok := info.StaticKind(e)
		if !ok {
			k = none
		}
		if k != c.want {
			t.Errorf("StaticKind(%s) = %v (ok=%v), want %v", c.expr, k, ok, c.want)
		}
	}
}

// TestTypedElems pins which arrays count their elements at the element
// type, one row per rule in the package doc. Function symbols are named
// "f.x".
func TestTypedElems(t *testing.T) {
	cases := []struct {
		name, body string
		want       map[string]bool
	}{
		{"dominated", `
WE HAS A sh ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 1
I HAS A n ITZ LOTZ A NUMBRS AN THAR IZ 1
I HAS A f ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 1
I HAS A y ITZ LOTZ A YARNS AN THAR IZ 1
n'Z 0 R f'Z 0
VISIBLE SUM OF n'Z 0 AN sh'Z 0`,
			map[string]bool{"sh": true, "n": true, "f": true, "y": false}},
		{"undominated", `
BOTH SAEM 1 AN 2, O RLY?
YA RLY
  I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 1
OIC
VISIBLE a'Z 0
IM IN YR l UPPIN YR k TIL BOTH SAEM k AN 0
  I HAS A z ITZ LOTZ A NUMBARS AN THAR IZ 1
IM OUTTA YR l
VISIBLE z'Z 0`,
			map[string]bool{"a": false, "z": false}},
		{"whole-array stores", `
I HAS A b ITZ LOTZ A NUMBARS AN THAR IZ 1
I HAS A r ITZ LOTZ A NUMBARS AN THAR IZ 1
I HAS A g ITZ LOTZ A NUMBRS AN THAR IZ 1
I HAS A c ITZ LOTZ A NUMBRS AN THAR IZ 1
r R b
GIMMEH g
c IS NOW A NUMBAR`,
			map[string]bool{"b": true, "r": false, "g": false, "c": false}},
		{"SRS target in the frame", `
WE HAS A sh ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 1
I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 1
SRS "a" R 5
HOW IZ I f
  I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 1
  VISIBLE a'Z 0
IF U SAY SO`,
			map[string]bool{"sh": true, "a": false, "f.a": true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			info := checked(t, "HAI 1.2"+c.body+"\nKTHXBYE")
			got := map[string]bool{}
			add := func(prefix string, scope *sema.Scope) {
				for _, sym := range scope.Order {
					if sym.IsArray {
						got[prefix+sym.Name] = sym.TypedElems
					}
				}
			}
			add("", info.Main)
			for name, fi := range info.Funcs {
				add(name+".", fi.Scope)
			}
			for name, typed := range got {
				if want, ok := c.want[name]; !ok || typed != want {
					t.Errorf("%s: TypedElems %v, want %v (listed %v)", name, typed, want, ok)
				}
			}
			for name := range c.want {
				if _, ok := got[name]; !ok {
					t.Errorf("no array %s", name)
				}
			}
		})
	}
}
