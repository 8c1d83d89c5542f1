package compile

import (
	"fmt"
	"math"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/value"
)

// This file implements the typed fast paths that make the closure backend a
// real compiler rather than a cached interpreter: expressions whose static
// type is known (SRSLY-typed and inferred numeric variables, loop counters,
// literals, the Table III math) compile to closures over raw float64/int64,
// skipping the dynamic value dispatch entirely. The paper's §II.B motivates
// exactly this: "dynamic typing which we extend to support statically typed
// variables as a transition to a compiled ... language".
//
// Correctness containment: the compiler decides no kinds itself. It reads
// sema's Symbol.Rep and Info.StaticKind, the same facts gogen lowers to
// raw Go (the sema package doc states the rules). A frame slot whose Rep
// is RepInt or RepFloat always holds that kind wherever it is read, so
// its closures unwrap it with no check; a shared SRSLY scalar is read
// boxed and converted. The differential test suite runs every engine on
// every program to keep these guarantees honest.

// floatFn evaluates a statically float-valued expression.
type floatFn func(*env) (float64, error)

// intFn evaluates a statically int-valued expression.
type intFn func(*env) (int64, error)

// boolFn evaluates a statically TROOF-valued expression.
type boolFn func(*env) (bool, error)

// floatExpr compiles e to a raw-float closure when its static kind is
// numeric and its structure is supported. The bool result reports success.
//
// Kind discipline: a subtree whose own static kind is NUMBR keeps integer
// semantics (QUOSHUNT OF -3 AN 7 is 0, not -0.43) and is compiled through
// intExpr, then widened — exactly how the dynamic evaluator behaves.
func (c *compiler) floatExpr(e ast.Expr) (floatFn, bool) {
	k, ok := c.info.StaticKind(e)
	if !ok {
		return nil, false
	}
	if k == value.Numbr {
		ifn, ok := c.intExpr(e)
		if !ok {
			return nil, false
		}
		return func(e *env) (float64, error) {
			n, err := ifn(e)
			return float64(n), err
		}, true
	}
	switch n := e.(type) {
	case *ast.NumbarLit:
		f := n.Value
		return func(*env) (float64, error) { return f, nil }, true

	case *ast.Whatevar:
		return func(e *env) (float64, error) { return e.pe.Rand().Float64(), nil }, true

	case *ast.VarRef:
		return c.floatVar(n)

	case *ast.Index:
		return c.floatIndex(n)

	case *ast.BinExpr:
		x, xok := c.floatExpr(n.X)
		y, yok := c.floatExpr(n.Y)
		if !xok || !yok {
			return nil, false
		}
		pos := n.Position
		switch n.Op {
		case value.OpSum:
			return func(e *env) (float64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				return a + b, nil
			}, true
		case value.OpDiff:
			return func(e *env) (float64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				return a - b, nil
			}, true
		case value.OpProdukt:
			return func(e *env) (float64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				return a * b, nil
			}, true
		case value.OpQuoshunt:
			return func(e *env) (float64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				if b == 0 {
					return 0, rerrf(pos, "QUOSHUNT OF: division by zero")
				}
				return a / b, nil
			}, true
		case value.OpMod:
			return func(e *env) (float64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				if b == 0 {
					return 0, rerrf(pos, "MOD OF: modulo by zero")
				}
				return math.Mod(a, b), nil
			}, true
		case value.OpBiggrOf:
			return func(e *env) (float64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				return math.Max(a, b), nil
			}, true
		case value.OpSmallrOf:
			return func(e *env) (float64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				return math.Min(a, b), nil
			}, true
		}
		return nil, false

	case *ast.UnExpr:
		x, xok := c.floatExpr(n.X)
		if !xok {
			return nil, false
		}
		pos := n.Position
		switch n.Op {
		case value.OpSquar:
			return func(e *env) (float64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				return a * a, nil
			}, true
		case value.OpUnsquar:
			return func(e *env) (float64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				if a < 0 {
					return 0, rerrf(pos, "UNSQUAR OF: negative operand %g", a)
				}
				return math.Sqrt(a), nil
			}, true
		case value.OpFlip:
			return func(e *env) (float64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				if a == 0 {
					return 0, rerrf(pos, "FLIP OF: division by zero")
				}
				return 1 / a, nil
			}, true
		}
		return nil, false
	}
	return nil, false
}

// floatVar compiles a read of a NUMBAR variable: a RepFloat slot, or a
// shared SRSLY NUMBAR scalar read boxed and converted.
func (c *compiler) floatVar(n *ast.VarRef) (floatFn, bool) {
	sym, err := c.resolve(n)
	if err != nil {
		return nil, false
	}
	if sym.Kind != sema.SymShared {
		slot := sym.Slot
		return func(e *env) (float64, error) { return e.frame[slot].Numbar(), nil }, true
	}
	read, err := c.readVar(n)
	if err != nil {
		return nil, false
	}
	pos := n.Position
	return func(e *env) (float64, error) {
		v, err := read(e)
		if err != nil {
			return 0, err
		}
		f, err := v.ToNumbar()
		return f, rerr(pos, err)
	}, true
}

// floatIndex compiles NUMBAR array element reads: private arrays read
// straight from the backing slice; shared arrays go through GetElem or
// LocalGetElem once per access. (NUMBR elements take intIndex.)
func (c *compiler) floatIndex(n *ast.Index) (floatFn, bool) {
	sym, err := c.resolve(n.Arr)
	if err != nil || !sym.IsArray || sym.Type != value.Numbar {
		return nil, false
	}
	idx, iok := c.intExpr(n.IndexE)
	if !iok {
		// Fall back to the generic index expression for the subscript.
		gen, err := c.expr(n.IndexE)
		if err != nil {
			return nil, false
		}
		pos := n.Position
		idx = func(e *env) (int64, error) {
			v, err := gen(e)
			if err != nil {
				return 0, err
			}
			i, err := v.ToNumbr()
			if err != nil {
				return 0, rerr(pos, fmt.Errorf("array index: %w", err))
			}
			return i, nil
		}
	}
	pos := n.Position

	if sym.Kind != sema.SymShared {
		slot := sym.Slot
		name := n.Arr.Name
		return func(e *env) (float64, error) {
			i, err := idx(e)
			if err != nil {
				return 0, err
			}
			av := e.frame[slot]
			if av.Kind() != value.ArrayK {
				return 0, rerrf(pos, "%s is not an array", name)
			}
			arr := av.Array()
			if i < 0 || int(i) >= arr.Len() {
				return 0, rerr(pos, &value.IndexError{Index: int(i), Len: arr.Len()})
			}
			return arr.Numbars()[i], nil
		}, true
	}

	heap := sym.Heap
	sp := n.Arr.Space
	return func(e *env) (float64, error) {
		i, err := idx(e)
		if err != nil {
			return 0, err
		}
		if sp == ast.SpaceUr {
			t, terr := e.predTarget(pos)
			if terr != nil {
				return 0, terr
			}
			v, err := e.pe.GetElem(t, heap, int(i))
			if err != nil {
				return 0, rerr(pos, err)
			}
			return v.ToNumbar()
		}
		// Local shared elements go through the heap's atomic element
		// read so concurrent remote traffic never observes torn values.
		v, err := e.pe.LocalGetElem(heap, int(i))
		if err != nil {
			return 0, rerr(pos, err)
		}
		return v.Numbar(), nil
	}, true
}

// intExpr compiles e to a raw-int closure when it is statically a NUMBR.
func (c *compiler) intExpr(e ast.Expr) (intFn, bool) {
	k, ok := c.info.StaticKind(e)
	if !ok || k != value.Numbr {
		return nil, false
	}
	switch n := e.(type) {
	case *ast.NumbrLit:
		v := n.Value
		return func(*env) (int64, error) { return v, nil }, true
	case *ast.Me:
		return func(e *env) (int64, error) { return int64(e.pe.ID()), nil }, true
	case *ast.MahFrenz:
		return func(e *env) (int64, error) { return int64(e.pe.NPEs()), nil }, true
	case *ast.Whatevr:
		return func(e *env) (int64, error) { return e.pe.Rand().Int63n(1 << 31), nil }, true
	case *ast.VarRef:
		sym, err := c.resolve(n)
		if err != nil {
			return nil, false
		}
		if sym.Kind != sema.SymShared {
			slot := sym.Slot
			return func(e *env) (int64, error) { return e.frame[slot].Numbr(), nil }, true
		}
		read, err := c.readVar(n)
		if err != nil {
			return nil, false
		}
		pos := n.Position
		return func(e *env) (int64, error) {
			v, err := read(e)
			if err != nil {
				return 0, err
			}
			i, err := v.ToNumbr()
			return i, rerr(pos, err)
		}, true
	case *ast.Index:
		return c.intIndex(n)
	case *ast.UnExpr:
		if n.Op != value.OpSquar {
			return nil, false
		}
		x, ok := c.intExpr(n.X)
		if !ok {
			return nil, false
		}
		return func(e *env) (int64, error) {
			a, err := x(e)
			if err != nil {
				return 0, err
			}
			return a * a, nil
		}, true
	case *ast.CastExpr:
		if n.Type != value.Numbr {
			return nil, false
		}
		gen, err := c.expr(n.X)
		if err != nil {
			return nil, false
		}
		pos := n.Position
		return func(e *env) (int64, error) {
			v, err := gen(e)
			if err != nil {
				return 0, err
			}
			cv, err := value.Cast(v, value.Numbr)
			if err != nil {
				return 0, rerr(pos, err)
			}
			return cv.Numbr(), nil
		}, true
	case *ast.BinExpr:
		x, xok := c.intExpr(n.X)
		y, yok := c.intExpr(n.Y)
		if !xok || !yok {
			return nil, false
		}
		pos := n.Position
		switch n.Op {
		case value.OpSum:
			return func(e *env) (int64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				return a + b, nil
			}, true
		case value.OpDiff:
			return func(e *env) (int64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				return a - b, nil
			}, true
		case value.OpProdukt:
			return func(e *env) (int64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				return a * b, nil
			}, true
		case value.OpMod:
			return func(e *env) (int64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				if b == 0 {
					return 0, rerrf(pos, "MOD OF: modulo by zero")
				}
				return a % b, nil
			}, true
		case value.OpQuoshunt:
			return func(e *env) (int64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				if b == 0 {
					return 0, rerrf(pos, "QUOSHUNT OF: division by zero")
				}
				return a / b, nil
			}, true
		case value.OpBiggrOf:
			return func(e *env) (int64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				return max(a, b), nil
			}, true
		case value.OpSmallrOf:
			return func(e *env) (int64, error) {
				a, err := x(e)
				if err != nil {
					return 0, err
				}
				b, err := y(e)
				if err != nil {
					return 0, err
				}
				return min(a, b), nil
			}, true
		}
		return nil, false
	}
	return nil, false
}

// intIndex compiles NUMBR array element reads to raw int64 access.
func (c *compiler) intIndex(n *ast.Index) (intFn, bool) {
	sym, err := c.resolve(n.Arr)
	if err != nil || !sym.IsArray || sym.Type != value.Numbr {
		return nil, false
	}
	idx, iok := c.intExpr(n.IndexE)
	if !iok {
		gen, err := c.expr(n.IndexE)
		if err != nil {
			return nil, false
		}
		pos := n.Position
		idx = func(e *env) (int64, error) {
			v, err := gen(e)
			if err != nil {
				return 0, err
			}
			i, err := v.ToNumbr()
			if err != nil {
				return 0, rerr(pos, fmt.Errorf("array index: %w", err))
			}
			return i, nil
		}
	}
	pos := n.Position

	if sym.Kind != sema.SymShared {
		slot := sym.Slot
		name := n.Arr.Name
		return func(e *env) (int64, error) {
			i, err := idx(e)
			if err != nil {
				return 0, err
			}
			av := e.frame[slot]
			if av.Kind() != value.ArrayK {
				return 0, rerrf(pos, "%s is not an array", name)
			}
			arr := av.Array()
			if i < 0 || int(i) >= arr.Len() {
				return 0, rerr(pos, &value.IndexError{Index: int(i), Len: arr.Len()})
			}
			return arr.Numbrs()[i], nil
		}, true
	}

	heap := sym.Heap
	sp := n.Arr.Space
	return func(e *env) (int64, error) {
		i, err := idx(e)
		if err != nil {
			return 0, err
		}
		if sp == ast.SpaceUr {
			t, terr := e.predTarget(pos)
			if terr != nil {
				return 0, terr
			}
			v, err := e.pe.GetElem(t, heap, int(i))
			if err != nil {
				return 0, rerr(pos, err)
			}
			return v.ToNumbr()
		}
		v, err := e.pe.LocalGetElem(heap, int(i))
		if err != nil {
			return 0, rerr(pos, err)
		}
		return v.Numbr(), nil
	}, true
}

// boolExpr compiles comparison conditions over specializable numeric
// operands (the hot path of every counted loop).
func (c *compiler) boolExpr(e ast.Expr) (boolFn, bool) {
	n, ok := e.(*ast.BinExpr)
	if !ok {
		return nil, false
	}
	eq := func(x, y floatFn) boolFn {
		return func(e *env) (bool, error) {
			a, err := x(e)
			if err != nil {
				return false, err
			}
			b, err := y(e)
			if err != nil {
				return false, err
			}
			return a == b, nil
		}
	}
	switch n.Op {
	case value.OpBothSaem, value.OpDiffrint, value.OpBigger, value.OpSmallr:
		xk, xok := c.info.StaticKind(n.X)
		yk, yok := c.info.StaticKind(n.Y)
		if !xok || !yok {
			return nil, false
		}
		// Two int-kind operands compare as int64 (float64 loses precision
		// past 2^53); mixed comparisons promote like the dynamic evaluator.
		if xk == value.Numbr && yk == value.Numbr {
			xi, xok2 := c.intExpr(n.X)
			yi, yok2 := c.intExpr(n.Y)
			if !xok2 || !yok2 {
				return nil, false
			}
			op := n.Op
			return func(e *env) (bool, error) {
				a, err := xi(e)
				if err != nil {
					return false, err
				}
				b, err := yi(e)
				if err != nil {
					return false, err
				}
				switch op {
				case value.OpBothSaem:
					return a == b, nil
				case value.OpDiffrint:
					return a != b, nil
				case value.OpBigger:
					return a > b, nil
				default:
					return a < b, nil
				}
			}, true
		}
		x, xok2 := c.floatExpr(n.X)
		y, yok2 := c.floatExpr(n.Y)
		if !xok2 || !yok2 {
			return nil, false
		}
		switch n.Op {
		case value.OpBothSaem:
			return eq(x, y), true
		case value.OpDiffrint:
			inner := eq(x, y)
			return func(e *env) (bool, error) {
				same, err := inner(e)
				return !same, err
			}, true
		case value.OpBigger:
			return func(e *env) (bool, error) {
				a, err := x(e)
				if err != nil {
					return false, err
				}
				b, err := y(e)
				if err != nil {
					return false, err
				}
				return a > b, nil
			}, true
		default: // OpSmallr
			return func(e *env) (bool, error) {
				a, err := x(e)
				if err != nil {
					return false, err
				}
				b, err := y(e)
				if err != nil {
					return false, err
				}
				return a < b, nil
			}, true
		}
	}
	return nil, false
}

// specializedExpr wraps a typed fast path back into the generic exprFn
// interface; used when a statically numeric expression or a numeric
// comparison appears in a dynamic context.
func (c *compiler) specializedExpr(e ast.Expr) (exprFn, bool) {
	k, ok := c.info.StaticKind(e)
	switch {
	case ok && k == value.Numbr:
		if fn, ok := c.intExpr(e); ok {
			return func(e *env) (value.Value, error) {
				n, err := fn(e)
				if err != nil {
					return value.NOOB, err
				}
				return value.NewNumbr(n), nil
			}, true
		}
	case ok:
		if fn, ok := c.floatExpr(e); ok {
			return func(e *env) (value.Value, error) {
				f, err := fn(e)
				if err != nil {
					return value.NOOB, err
				}
				return value.NewNumbar(f), nil
			}, true
		}
	default:
		if fn, ok := c.boolExpr(e); ok {
			return func(e *env) (value.Value, error) {
				b, err := fn(e)
				if err != nil {
					return value.NOOB, err
				}
				return value.NewTroof(b), nil
			}, true
		}
	}
	return nil, false
}

// specializedAssign builds a fast store for `target R value` when both
// sides have known numeric types: raw-Rep scalars and typed array elements
// skip the dynamic cast machinery.
func (c *compiler) specializedAssign(n *ast.Assign) (stmtFn, bool) {
	switch target := n.Target.(type) {
	case *ast.VarRef:
		sym, err := c.resolve(target)
		if err != nil {
			return nil, false
		}
		switch sym.Rep {
		case sema.RepFloat:
			fx, ok := c.floatExpr(n.Value)
			if !ok {
				return nil, false
			}
			slot := sym.Slot
			return func(e *env) (ctrl, error) {
				f, err := fx(e)
				if err != nil {
					return ctrlNone, err
				}
				e.frame[slot] = value.NewNumbar(f)
				return ctrlNone, nil
			}, true
		case sema.RepInt:
			fx, ok := c.intExpr(n.Value)
			if !ok {
				return nil, false
			}
			slot := sym.Slot
			return func(e *env) (ctrl, error) {
				v, err := fx(e)
				if err != nil {
					return ctrlNone, err
				}
				e.frame[slot] = value.NewNumbr(v)
				return ctrlNone, nil
			}, true
		}
		return nil, false

	case *ast.Index:
		sym, err := c.resolve(target.Arr)
		if err != nil || sym.Kind == sema.SymShared || !sym.TypedElems || sym.Type != value.Numbar {
			return nil, false
		}
		fx, ok := c.floatExpr(n.Value)
		if !ok {
			return nil, false
		}
		idx, ok := c.intExpr(target.IndexE)
		if !ok {
			return nil, false
		}
		slot := sym.Slot
		pos := target.Position
		name := target.Arr.Name
		return func(e *env) (ctrl, error) {
			f, err := fx(e)
			if err != nil {
				return ctrlNone, err
			}
			i, err := idx(e)
			if err != nil {
				return ctrlNone, err
			}
			av := e.frame[slot]
			if av.Kind() != value.ArrayK {
				return ctrlNone, rerrf(pos, "%s is not an array", name)
			}
			arr := av.Array()
			if i < 0 || int(i) >= arr.Len() {
				return ctrlNone, rerr(pos, &value.IndexError{Index: int(i), Len: arr.Len()})
			}
			arr.Numbars()[i] = f
			return ctrlNone, nil
		}, true
	}
	return nil, false
}

// specializedLoop compiles the common counted-loop shape with a raw int64
// counter and a specialized condition.
func (c *compiler) specializedLoop(n *ast.Loop, body []stmtFn) (stmtFn, bool) {
	if n.Var == "" || n.Cond == nil {
		return nil, false
	}
	sym, _ := n.Sym.(*sema.Symbol)
	if sym == nil {
		return nil, false
	}
	cond, ok := c.boolExpr(n.Cond)
	if !ok {
		return nil, false
	}
	slot := sym.Slot
	isImplicit := sym.Kind == sema.SymLoopVar
	condTil := n.CondKind == ast.CondTil
	nerfin := n.Op == ast.LoopNerfin
	pos := n.Position
	varName := n.Var

	return func(e *env) (ctrl, error) {
		saved := e.frame[slot]
		e.frame[slot] = value.NewNumbr(0)
		if isImplicit {
			defer func() { e.frame[slot] = saved }()
		}
		for {
			if err := e.meter.Step(); err != nil {
				return ctrlNone, rerr(pos, err)
			}
			stop, err := cond(e)
			if err != nil {
				return ctrlNone, err
			}
			if !condTil {
				stop = !stop
			}
			if stop {
				return ctrlNone, nil
			}
			ctl, err := runStmts(e, body)
			if err != nil {
				return ctrlNone, err
			}
			if ctl == ctrlBreak {
				return ctrlNone, nil
			}
			if ctl == ctrlReturn {
				return ctl, nil
			}
			// The body may have reassigned the counter, possibly to a
			// non-NUMBR; honour the value and diagnose like the generic path.
			var i int64
			if cur := e.frame[slot]; cur.Kind() == value.Numbr {
				i = cur.Numbr()
			} else {
				i, err = cur.ToNumbr()
				if err != nil {
					return ctrlNone, rerr(pos, fmt.Errorf("loop variable %s: %w", varName, err))
				}
			}
			if nerfin {
				i--
			} else {
				i++
			}
			e.frame[slot] = value.NewNumbr(i)
		}
	}, true
}
