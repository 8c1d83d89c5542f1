package value

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Noob: "NOOB", Troof: "TROOF", Numbr: "NUMBR", Numbar: "NUMBAR",
		Yarn: "YARN", ArrayK: "ARRAY",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestToTroof(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{NOOB, false},
		{NewNumbr(0), false},
		{NewNumbr(1), true},
		{NewNumbr(-1), true},
		{NewNumbar(0), false},
		{NewNumbar(0.001), true},
		{NewYarn(""), false},
		{NewYarn("0"), true}, // non-empty YARN is WIN, even "0"
		{NewTroof(true), true},
		{NewTroof(false), false},
	}
	for _, c := range cases {
		if got := c.v.ToTroof(); got != c.want {
			t.Errorf("ToTroof(%v %v) = %v, want %v", c.v.Kind(), c.v, got, c.want)
		}
	}
}

func TestToNumbr(t *testing.T) {
	if n, err := NewYarn(" 42 ").ToNumbr(); err != nil || n != 42 {
		t.Errorf("YARN \" 42 \" -> (%d, %v), want 42", n, err)
	}
	if _, err := NewYarn("cat").ToNumbr(); err == nil {
		t.Error("YARN \"cat\" should not cast to NUMBR")
	}
	if n, err := NewNumbar(3.9).ToNumbr(); err != nil || n != 3 {
		t.Errorf("NUMBAR 3.9 -> (%d, %v), want truncation to 3", n, err)
	}
	if n, err := NewTroof(true).ToNumbr(); err != nil || n != 1 {
		t.Errorf("WIN -> (%d, %v), want 1", n, err)
	}
	if _, err := NOOB.ToNumbr(); err == nil {
		t.Error("implicit NOOB->NUMBR must error per the spec")
	}
}

func TestToYarnFormatsNumbarTwoPlaces(t *testing.T) {
	// LOLCODE-1.2: NUMBAR casts to YARN with two decimal places.
	cases := map[float64]string{
		3.14159: "3.14",
		1:       "1.00",
		-0.5:    "-0.50",
		1e6:     "1000000.00",
	}
	for f, want := range cases {
		got, err := NewNumbar(f).ToYarn()
		if err != nil || got != want {
			t.Errorf("NUMBAR %v -> (%q, %v), want %q", f, got, err, want)
		}
	}
}

func TestCastFromNoobExplicit(t *testing.T) {
	// Explicit MAEK casts from NOOB produce zero values.
	if v, err := Cast(NOOB, Numbr); err != nil || v.Numbr() != 0 {
		t.Errorf("MAEK NOOB A NUMBR = (%v, %v)", v, err)
	}
	if v, err := Cast(NOOB, Yarn); err != nil || v.Yarn() != "" {
		t.Errorf("MAEK NOOB A YARN = (%v, %v)", v, err)
	}
	if v, err := Cast(NOOB, Troof); err != nil || v.Troof() {
		t.Errorf("MAEK NOOB A TROOF = (%v, %v), want FAIL", v, err)
	}
}

func TestEqualCrossNumeric(t *testing.T) {
	if !Equal(NewNumbr(3), NewNumbar(3.0)) {
		t.Error("NUMBR 3 should BOTH SAEM NUMBAR 3.0")
	}
	if Equal(NewNumbr(3), NewYarn("3")) {
		t.Error("NUMBR 3 should not implicitly equal YARN \"3\"")
	}
	if !Equal(NOOB, NOOB) {
		t.Error("NOOB equals NOOB")
	}
}

func TestBinaryIntegerSemantics(t *testing.T) {
	mustNumbr := func(op BinOp, a, b int64) int64 {
		t.Helper()
		v, err := Binary(op, NewNumbr(a), NewNumbr(b))
		if err != nil {
			t.Fatalf("%v %d %d: %v", op, a, b, err)
		}
		if v.Kind() != Numbr {
			t.Fatalf("%v on NUMBRs returned %v", op, v.Kind())
		}
		return v.Numbr()
	}
	if got := mustNumbr(OpQuoshunt, 7, 2); got != 3 {
		t.Errorf("QUOSHUNT OF 7 AN 2 = %d, want integer division 3", got)
	}
	if got := mustNumbr(OpMod, 7, 2); got != 1 {
		t.Errorf("MOD OF 7 AN 2 = %d, want 1", got)
	}
	if got := mustNumbr(OpBiggrOf, 3, 9); got != 9 {
		t.Errorf("BIGGR OF = %d, want 9", got)
	}
}

func TestBinaryPromotesToNumbar(t *testing.T) {
	v, err := Binary(OpQuoshunt, NewNumbr(7), NewNumbar(2))
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != Numbar || v.Numbar() != 3.5 {
		t.Errorf("7 / 2.0 = %v (%v), want NUMBAR 3.5", v, v.Kind())
	}
}

func TestBinaryYarnCoercion(t *testing.T) {
	v, err := Binary(OpSum, NewYarn("2"), NewYarn("3"))
	if err != nil || v.Kind() != Numbr || v.Numbr() != 5 {
		t.Errorf("SUM OF \"2\" AN \"3\" = (%v, %v), want NUMBR 5", v, err)
	}
	v, err = Binary(OpSum, NewYarn("2.5"), NewNumbr(1))
	if err != nil || v.Kind() != Numbar || v.Numbar() != 3.5 {
		t.Errorf("SUM OF \"2.5\" AN 1 = (%v, %v), want NUMBAR 3.5", v, err)
	}
	if _, err := Binary(OpSum, NewTroof(true), NewNumbr(1)); err == nil {
		t.Error("math on TROOF should error (spec: not numeric)")
	}
}

func TestDivisionByZero(t *testing.T) {
	if _, err := Binary(OpQuoshunt, NewNumbr(1), NewNumbr(0)); err == nil {
		t.Error("integer division by zero must error")
	}
	if _, err := Binary(OpMod, NewNumbar(1), NewNumbar(0)); err == nil {
		t.Error("float modulo by zero must error")
	}
	if _, err := Unary(OpFlip, NewNumbr(0)); err == nil {
		t.Error("FLIP OF 0 must error")
	}
}

func TestComparisonOps(t *testing.T) {
	v, _ := Binary(OpBigger, NewNumbr(3), NewNumbr(2))
	if !v.Troof() {
		t.Error("BIGGER 3 AN 2 should be WIN")
	}
	v, _ = Binary(OpSmallr, NewNumbar(1.5), NewNumbr(2))
	if !v.Troof() {
		t.Error("SMALLR 1.5 AN 2 should be WIN")
	}
}

func TestUnaryTableIII(t *testing.T) {
	if v, _ := Unary(OpSquar, NewNumbr(5)); v.Kind() != Numbr || v.Numbr() != 25 {
		t.Errorf("SQUAR OF 5 = %v, want NUMBR 25", v)
	}
	if v, _ := Unary(OpUnsquar, NewNumbr(16)); v.Kind() != Numbar || v.Numbar() != 4 {
		t.Errorf("UNSQUAR OF 16 = %v, want NUMBAR 4", v)
	}
	if v, _ := Unary(OpFlip, NewNumbar(4)); v.Numbar() != 0.25 {
		t.Errorf("FLIP OF 4 = %v, want 0.25", v)
	}
	if _, err := Unary(OpUnsquar, NewNumbr(-1)); err == nil {
		t.Error("UNSQUAR OF -1 must error")
	}
}

func TestSmoosh(t *testing.T) {
	v, err := Nary(OpSmoosh, []Value{NewYarn("a"), NewNumbr(1), NewTroof(true)})
	if err != nil || v.Yarn() != "a1WIN" {
		t.Errorf("SMOOSH = (%q, %v), want \"a1WIN\"", v.Yarn(), err)
	}
}

func TestDisplayNoob(t *testing.T) {
	if got := NOOB.Display(); got != "NOOB" {
		t.Errorf("Display(NOOB) = %q", got)
	}
}

// Property: SQUAR OF x is never negative, and UNSQUAR OF SQUAR OF |x|
// returns |x| for safe magnitudes.
func TestPropertySquarUnsquar(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
			return true
		}
		sq, err := Unary(OpSquar, NewNumbar(x))
		if err != nil || sq.Numbar() < 0 {
			return false
		}
		if sq.Numbar() == 0 {
			return true
		}
		root, err := Unary(OpUnsquar, sq)
		if err != nil {
			return false
		}
		return math.Abs(root.Numbar()-math.Abs(x)) <= 1e-9*math.Abs(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: casting any NUMBR to YARN and back is the identity.
func TestPropertyNumbrYarnRoundTrip(t *testing.T) {
	f := func(n int64) bool {
		y, err := Cast(NewNumbr(n), Yarn)
		if err != nil {
			return false
		}
		back, err := Cast(y, Numbr)
		return err == nil && back.Numbr() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Equal is symmetric across all scalar kinds.
func TestPropertyEqualSymmetric(t *testing.T) {
	gen := func(tag uint8, n int64, fl float64, s string, b bool) Value {
		switch tag % 5 {
		case 0:
			return NOOB
		case 1:
			return NewTroof(b)
		case 2:
			return NewNumbr(n)
		case 3:
			return NewNumbar(fl)
		default:
			return NewYarn(s)
		}
	}
	f := func(t1 uint8, n1 int64, f1 float64, s1 string, b1 bool,
		t2 uint8, n2 int64, f2 float64, s2 string, b2 bool) bool {
		a := gen(t1, n1, f1, s1, b1)
		b := gen(t2, n2, f2, s2, b2)
		return Equal(a, b) == Equal(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SUM then DIFF of the same NUMBR operand is the identity
// (int64 wraparound is well-defined in Go and in our NUMBR).
func TestPropertySumDiffInverse(t *testing.T) {
	f := func(a, b int64) bool {
		s, err := Binary(OpSum, NewNumbr(a), NewNumbr(b))
		if err != nil {
			return false
		}
		d, err := Binary(OpDiff, s, NewNumbr(b))
		return err == nil && d.Numbr() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestArrayBasics(t *testing.T) {
	a, err := NewArrayOf(Numbr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 4 || a.Elem() != Numbr {
		t.Fatalf("bad array: len=%d elem=%v", a.Len(), a.Elem())
	}
	if err := a.Set(2, NewNumbar(7.9)); err != nil {
		t.Fatal(err)
	}
	if got := a.Get(2).Numbr(); got != 7 {
		t.Errorf("element cast on Set: got %d, want truncated 7", got)
	}
	if _, err := a.GetChecked(4); err == nil {
		t.Error("out-of-range read must error")
	}
	if err := a.Set(-1, NewNumbr(0)); err == nil {
		t.Error("negative index must error")
	}
	var ie *IndexError
	if _, err := a.GetChecked(9); err != nil {
		var ok bool
		ie, ok = err.(*IndexError)
		if !ok || ie.Index != 9 || ie.Len != 4 {
			t.Errorf("IndexError details wrong: %v", err)
		}
	}
}

func TestArrayResizeAndCopy(t *testing.T) {
	a, _ := NewArrayOf(Yarn, 2)
	a.Set(0, NewYarn("hai"))
	if err := a.Resize(5); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 5 || a.Get(0).Yarn() != "hai" || a.Get(4).Yarn() != "" {
		t.Errorf("resize grew wrong: %v", a)
	}
	if err := a.Resize(1); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 1 {
		t.Errorf("resize shrink wrong: len=%d", a.Len())
	}

	b, _ := NewArrayOf(Yarn, 3)
	b.Set(2, NewYarn("kthx"))
	if err := a.CopyFrom(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 3 || a.Get(2).Yarn() != "kthx" {
		t.Errorf("copy wrong: %v", a)
	}
	c, _ := NewArrayOf(Numbr, 3)
	if err := a.CopyFrom(c); err == nil {
		t.Error("copy across element types must error")
	}
}

func TestArrayCloneIsDeep(t *testing.T) {
	a, _ := NewArrayOf(Numbar, 3)
	a.Set(1, NewNumbar(2.5))
	c := a.Clone()
	c.Set(1, NewNumbar(9))
	if a.Get(1).Numbar() != 2.5 {
		t.Error("clone shares storage with original")
	}
}

func TestArrayOfNoobRejected(t *testing.T) {
	if _, err := NewArrayOf(Noob, 3); err == nil {
		t.Error("LOTZ A NOOBS should be rejected")
	}
	if _, err := NewArrayOf(Numbr, -1); err == nil {
		t.Error("negative size should be rejected")
	}
}

// StoreWord and LoadWord must behave exactly like Set and Get: the same
// casts, the same IndexError and cast errors.
func TestArrayWordAccessorsMatchSet(t *testing.T) {
	inputs := []Value{NewNumbr(7), NewNumbar(-2.5), NewYarn("3"), NewYarn("nope"), NewTroof(true), NOOB}
	for _, k := range []Kind{Numbr, Numbar} {
		for _, v := range inputs {
			for _, i := range []int{1, 2, -1} {
				plain, _ := NewArrayOf(k, 2)
				word, _ := NewArrayOf(k, 2)
				perr, werr := plain.Set(i, v), word.StoreWord(i, v)
				if fmt.Sprint(perr) != fmt.Sprint(werr) {
					t.Errorf("%v[%d] = %v: Set error %v, StoreWord error %v", k, i, v, perr, werr)
				}
				got, err := word.LoadWord(i)
				want, gerr := plain.GetChecked(i)
				if got != want || fmt.Sprint(err) != fmt.Sprint(gerr) {
					t.Errorf("%v[%d] = %v: LoadWord %v, %v; GetChecked %v, %v", k, i, v, got, err, want, gerr)
				}
			}
		}
	}
	// Arrays of other element types have no words to load or store.
	yarns, _ := NewArrayOf(Yarn, 1)
	if _, err := yarns.LoadWord(0); err == nil {
		t.Error("LoadWord on a YARN array succeeded")
	}
	if err := yarns.StoreWord(0, NewNumbr(1)); err == nil {
		t.Error("StoreWord on a YARN array succeeded")
	}
}

// Property: for any sequence of sets within range, Get returns the cast of
// the last Set at that index.
func TestPropertyArraySetGet(t *testing.T) {
	f := func(vals []int64) bool {
		const n = 8
		a, err := NewArrayOf(Numbr, n)
		if err != nil {
			return false
		}
		shadow := make([]int64, n)
		for i, v := range vals {
			idx := i % n
			if err := a.Set(idx, NewNumbr(v)); err != nil {
				return false
			}
			shadow[idx] = v
		}
		for i := 0; i < n; i++ {
			if a.Get(i).Numbr() != shadow[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDisplayArray(t *testing.T) {
	a, _ := NewArrayOf(Numbr, 3)
	a.Set(0, NewNumbr(1))
	a.Set(1, NewNumbr(2))
	a.Set(2, NewNumbr(3))
	if got := NewArray(a).Display(); got != "1 2 3" {
		t.Errorf("array Display = %q", got)
	}
}

func TestTypeErrorMessage(t *testing.T) {
	_, err := Cast(NewArray(mustArr(t)), Numbr)
	if err == nil || !strings.Contains(err.Error(), "ARRAY") {
		t.Errorf("casting array to NUMBR: %v", err)
	}
}

func mustArr(t *testing.T) *Array {
	t.Helper()
	a, err := NewArrayOf(Numbr, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
