package value

import (
	"fmt"
	"math"
	"strings"
)

// BinOp enumerates the binary operators of Table I (plus DIFF OF, which the
// paper's n-body listing uses, and BIGGR/SMALLR OF from LOLCODE-1.2).
type BinOp int

const (
	OpSum      BinOp = iota // SUM OF
	OpDiff                  // DIFF OF
	OpProdukt               // PRODUKT OF
	OpQuoshunt              // QUOSHUNT OF
	OpMod                   // MOD OF
	OpBiggrOf               // BIGGR OF  (max)
	OpSmallrOf              // SMALLR OF (min)
	OpBigger                // BIGGER    (greater-than, paper Table I)
	OpSmallr                // SMALLR    (less-than, paper Table I)
	OpBothSaem              // BOTH SAEM
	OpDiffrint              // DIFFRINT
	OpBothOf                // BOTH OF   (logical and)
	OpEitherOf              // EITHER OF (logical or)
	OpWonOf                 // WON OF    (logical xor)
)

var binOpNames = [...]string{
	"SUM OF", "DIFF OF", "PRODUKT OF", "QUOSHUNT OF", "MOD OF",
	"BIGGR OF", "SMALLR OF", "BIGGER", "SMALLR", "BOTH SAEM", "DIFFRINT",
	"BOTH OF", "EITHER OF", "WON OF",
}

func (op BinOp) String() string {
	if int(op) < len(binOpNames) {
		return binOpNames[op]
	}
	return fmt.Sprintf("BinOp(%d)", int(op))
}

// Arith reports whether op dispatches through the numeric-coercion path
// of Binary (SUM OF … SMALLR). The equality and logical operators compare
// or coerce to TROOF without requiring numeric operands.
func (op BinOp) Arith() bool { return op >= OpSum && op <= OpSmallr }

// UnOp enumerates the unary operators (NOT plus the paper's Table III math).
type UnOp int

const (
	OpNot     UnOp = iota // NOT
	OpSquar               // SQUAR OF   (x*x)
	OpUnsquar             // UNSQUAR OF (sqrt)
	OpFlip                // FLIP OF    (1/x)
)

var unOpNames = [...]string{"NOT", "SQUAR OF", "UNSQUAR OF", "FLIP OF"}

func (op UnOp) String() string {
	if int(op) < len(unOpNames) {
		return unOpNames[op]
	}
	return fmt.Sprintf("UnOp(%d)", int(op))
}

// numeric converts a math operand per the spec: NUMBR and NUMBAR pass
// through; numeric YARNs parse (as NUMBAR when they contain '.', 'e' or
// 'E'); everything else is an error.
func numeric(op string, v Value) (Value, error) {
	switch v.kind {
	case Numbr, Numbar:
		return v, nil
	case Yarn:
		s := strings.TrimSpace(v.s)
		if strings.ContainsAny(s, ".eE") {
			f, err := v.ToNumbar()
			if err != nil {
				return NOOB, fmt.Errorf("%s: %w", op, err)
			}
			return NewNumbar(f), nil
		}
		n, err := v.ToNumbr()
		if err != nil {
			return NOOB, fmt.Errorf("%s: %w", op, err)
		}
		return NewNumbr(n), nil
	}
	return NOOB, fmt.Errorf("%s: %s is not numeric", op, v.kind)
}

// Binary applies op to a and b with the casting rules of LOLCODE-1.2.
func Binary(op BinOp, a, b Value) (Value, error) {
	switch op {
	case OpBothSaem:
		return NewTroof(Equal(a, b)), nil
	case OpDiffrint:
		return NewTroof(!Equal(a, b)), nil
	case OpBothOf:
		return NewTroof(a.ToTroof() && b.ToTroof()), nil
	case OpEitherOf:
		return NewTroof(a.ToTroof() || b.ToTroof()), nil
	case OpWonOf:
		return NewTroof(a.ToTroof() != b.ToTroof()), nil
	}

	name := op.String()
	na, err := numeric(name, a)
	if err != nil {
		return NOOB, err
	}
	nb, err := numeric(name, b)
	if err != nil {
		return NOOB, err
	}

	if na.kind == Numbr && nb.kind == Numbr {
		return binaryNumbr(op, na.n, nb.n)
	}
	fa, _ := na.ToNumbar()
	fb, _ := nb.ToNumbar()
	return binaryNumbar(op, fa, fb)
}

// The Raw* helpers are the operand-checked forms of the operators whose
// typed lowering is not a single Go expression (division and modulo need
// a zero check, the Table III unaries have domain errors, float modulo
// needs math.Mod). Generated code (internal/gogen) and the dynamic
// dispatch below share them so the error behaviour stays single-sourced:
// a typed fast path must fail with byte-identical messages to the
// interpreter or the server's differential tests reject the tier.

// RawQuoshuntNumbr is QUOSHUNT OF on two NUMBRs.
func RawQuoshuntNumbr(a, b int64) (int64, error) {
	if b == 0 {
		return 0, fmt.Errorf("QUOSHUNT OF: division by zero")
	}
	return a / b, nil
}

// RawQuoshuntNumbar is QUOSHUNT OF on two NUMBARs.
func RawQuoshuntNumbar(a, b float64) (float64, error) {
	if b == 0 {
		return 0, fmt.Errorf("QUOSHUNT OF: division by zero")
	}
	return a / b, nil
}

// RawModNumbr is MOD OF on two NUMBRs.
func RawModNumbr(a, b int64) (int64, error) {
	if b == 0 {
		return 0, fmt.Errorf("MOD OF: modulo by zero")
	}
	return a % b, nil
}

// RawModNumbar is MOD OF on two NUMBARs.
func RawModNumbar(a, b float64) (float64, error) {
	if b == 0 {
		return 0, fmt.Errorf("MOD OF: modulo by zero")
	}
	return math.Mod(a, b), nil
}

// RawUnsquar is UNSQUAR OF on a NUMBAR operand.
func RawUnsquar(f float64) (float64, error) {
	if f < 0 {
		return 0, fmt.Errorf("UNSQUAR OF: negative operand %g", f)
	}
	return math.Sqrt(f), nil
}

// RawFlip is FLIP OF on a NUMBAR operand.
func RawFlip(f float64) (float64, error) {
	if f == 0 {
		return 0, fmt.Errorf("FLIP OF: division by zero")
	}
	return 1 / f, nil
}

// BinaryNumbr applies an Arith op to two raw NUMBR payloads, skipping the
// operand coercion (and operand boxing) of Binary. For NUMBR operands the
// result and error behaviour are identical to Binary's — the bytecode
// VM's word ops and Binary's own dispatch share this body, so typed code
// cannot drift from the generic semantics.
func BinaryNumbr(op BinOp, a, b int64) (Value, error) { return binaryNumbr(op, a, b) }

// BinaryNumbar is BinaryNumbr for raw NUMBAR payloads. It is also the
// mixed NUMBR/NUMBAR path: Binary resolves mixed numeric operands by
// widening the NUMBR side to float64, exactly as a caller of this helper
// does.
func BinaryNumbar(op BinOp, a, b float64) (Value, error) { return binaryNumbar(op, a, b) }

// RawCmpNumbr evaluates a comparison op on raw NUMBR payloads without
// boxing a TROOF result. ok is false when op is not one of the four
// comparison operators (BIGGER, SMALLR, BOTH SAEM, DIFFRINT); the caller
// falls back to the generic dispatch. The BOTH SAEM/DIFFRINT results
// match Equal's same-kind NUMBR case.
func RawCmpNumbr(op BinOp, a, b int64) (res, ok bool) {
	switch op {
	case OpBigger:
		return a > b, true
	case OpSmallr:
		return a < b, true
	case OpBothSaem:
		return a == b, true
	case OpDiffrint:
		return a != b, true
	}
	return false, false
}

// RawCmpNumbar is RawCmpNumbr on raw NUMBAR payloads; it also serves the
// mixed NUMBR/NUMBAR comparison, which both Binary and Equal resolve by
// widening the NUMBR side to float64.
func RawCmpNumbar(op BinOp, a, b float64) (res, ok bool) {
	switch op {
	case OpBigger:
		return a > b, true
	case OpSmallr:
		return a < b, true
	case OpBothSaem:
		return a == b, true
	case OpDiffrint:
		return a != b, true
	}
	return false, false
}

func binaryNumbr(op BinOp, a, b int64) (Value, error) {
	switch op {
	case OpSum:
		return NewNumbr(a + b), nil
	case OpDiff:
		return NewNumbr(a - b), nil
	case OpProdukt:
		return NewNumbr(a * b), nil
	case OpQuoshunt:
		n, err := RawQuoshuntNumbr(a, b)
		if err != nil {
			return NOOB, err
		}
		return NewNumbr(n), nil
	case OpMod:
		n, err := RawModNumbr(a, b)
		if err != nil {
			return NOOB, err
		}
		return NewNumbr(n), nil
	case OpBiggrOf:
		if a > b {
			return NewNumbr(a), nil
		}
		return NewNumbr(b), nil
	case OpSmallrOf:
		if a < b {
			return NewNumbr(a), nil
		}
		return NewNumbr(b), nil
	case OpBigger:
		return NewTroof(a > b), nil
	case OpSmallr:
		return NewTroof(a < b), nil
	}
	return NOOB, fmt.Errorf("invalid NUMBR operator %v", op)
}

func binaryNumbar(op BinOp, a, b float64) (Value, error) {
	switch op {
	case OpSum:
		return NewNumbar(a + b), nil
	case OpDiff:
		return NewNumbar(a - b), nil
	case OpProdukt:
		return NewNumbar(a * b), nil
	case OpQuoshunt:
		f, err := RawQuoshuntNumbar(a, b)
		if err != nil {
			return NOOB, err
		}
		return NewNumbar(f), nil
	case OpMod:
		f, err := RawModNumbar(a, b)
		if err != nil {
			return NOOB, err
		}
		return NewNumbar(f), nil
	case OpBiggrOf:
		return NewNumbar(math.Max(a, b)), nil
	case OpSmallrOf:
		return NewNumbar(math.Min(a, b)), nil
	case OpBigger:
		return NewTroof(a > b), nil
	case OpSmallr:
		return NewTroof(a < b), nil
	}
	return NOOB, fmt.Errorf("invalid NUMBAR operator %v", op)
}

// Unary applies NOT or one of the paper's Table III math extensions.
// SQUAR OF preserves NUMBR; UNSQUAR OF and FLIP OF always produce NUMBAR.
func Unary(op UnOp, v Value) (Value, error) {
	switch op {
	case OpNot:
		return NewTroof(!v.ToTroof()), nil
	case OpSquar:
		n, err := numeric("SQUAR OF", v)
		if err != nil {
			return NOOB, err
		}
		if n.kind == Numbr {
			return NewNumbr(n.n * n.n), nil
		}
		return NewNumbar(n.f * n.f), nil
	case OpUnsquar:
		f, err := v.ToNumbar()
		if err != nil {
			return NOOB, fmt.Errorf("UNSQUAR OF: %w", err)
		}
		r, err := RawUnsquar(f)
		if err != nil {
			return NOOB, err
		}
		return NewNumbar(r), nil
	case OpFlip:
		f, err := v.ToNumbar()
		if err != nil {
			return NOOB, fmt.Errorf("FLIP OF: %w", err)
		}
		r, err := RawFlip(f)
		if err != nil {
			return NOOB, err
		}
		return NewNumbar(r), nil
	}
	return NOOB, fmt.Errorf("invalid unary operator %v", op)
}

// NaryOp enumerates the variadic operators terminated by MKAY.
type NaryOp int

const (
	OpAllOf  NaryOp = iota // ALL OF … MKAY (and)
	OpAnyOf                // ANY OF … MKAY (or)
	OpSmoosh               // SMOOSH … MKAY (string concat)
)

func (op NaryOp) String() string {
	switch op {
	case OpAllOf:
		return "ALL OF"
	case OpAnyOf:
		return "ANY OF"
	case OpSmoosh:
		return "SMOOSH"
	}
	return fmt.Sprintf("NaryOp(%d)", int(op))
}

// Nary applies a variadic operator to already-evaluated operands.
// (Short-circuit evaluation of ALL OF / ANY OF is the evaluator's business;
// this helper is the strict fallback used once operands exist.)
func Nary(op NaryOp, vs []Value) (Value, error) {
	switch op {
	case OpAllOf:
		for _, v := range vs {
			if !v.ToTroof() {
				return NewTroof(false), nil
			}
		}
		return NewTroof(true), nil
	case OpAnyOf:
		for _, v := range vs {
			if v.ToTroof() {
				return NewTroof(true), nil
			}
		}
		return NewTroof(false), nil
	case OpSmoosh:
		var b strings.Builder
		for _, v := range vs {
			b.WriteString(v.Display())
		}
		return NewYarn(b.String()), nil
	}
	return NOOB, fmt.Errorf("invalid n-ary operator %v", op)
}
