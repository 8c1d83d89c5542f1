package gogen

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/value"
)

// This file is the typed fast path of the emitter: expressions and
// variables whose runtime kind is statically known lower to raw Go
// int64/float64 code instead of boxed value.Value dispatch, the same move
// internal/compile/specialize.go makes for the closure backend and the
// paper's §II.B motivates ("statically typed variables as a transition to
// a compiled ... language"). This is what makes the server's native tier
// an actual promotion: without it the generated binary pays the dynamic
// value.Binary cost per operator and barely beats the tree-walker.
//
// The emitter decides nothing about kinds itself: sema gives each
// symbol its Rep and answers StaticKind (see the sema package doc for
// the rules). A private with a raw Rep is declared as a Go int64 or
// float64; a shared SRSLY NUMBR or NUMBAR scalar is read boxed and
// converted. Shared NUMBR and NUMBAR elements read through the typed
// gets (pe.GetNumbar and friends) straight into raw code. Typed fast
// paths for operators with failure modes (QUOSHUNT, MOD, FLIP OF,
// UNSQUAR OF) call the value.Raw* helpers so error text stays
// single-sourced with the dynamic backends.

// goType returns the Go declaration type for a symbol.
func goType(sym *sema.Symbol) string {
	switch sym.Rep {
	case sema.RepInt:
		return "int64"
	case sema.RepFloat:
		return "float64"
	}
	return "value.Value"
}

// repKind is the kind a raw Rep holds.
func repKind(r sema.Rep) value.Kind {
	if r == sema.RepFloat {
		return value.Numbar
	}
	return value.Numbr
}

// staticCondOK reports whether e can be emitted as a raw Go bool: a
// numeric comparison over statically-typed operands, possibly negated.
// Logic over dynamic operands (BOTH OF, ANY OF, ...) stays boxed — its
// short-circuiting must not eagerly evaluate operand side effects.
func (g *gen) staticCondOK(e ast.Expr) bool {
	switch n := e.(type) {
	case *ast.BinExpr:
		switch n.Op {
		case value.OpBigger, value.OpSmallr, value.OpBothSaem, value.OpDiffrint:
			_, xok := g.info.StaticKind(n.X)
			_, yok := g.info.StaticKind(n.Y)
			return xok && yok
		}
		return false
	case *ast.UnExpr:
		return n.Op == value.OpNot && g.staticCondOK(n.X)
	}
	return false
}

// rawPromote converts raw code of kind `from` to kind `want`. NUMBR →
// NUMBAR is float64() (exactly ToNumbar on a NUMBR); NUMBAR → NUMBR is
// int64() truncation (exactly ToNumbr on a NUMBAR).
func rawPromote(code string, from, want value.Kind) string {
	switch {
	case from == want:
		return code
	case want == value.Numbar:
		return fmt.Sprintf("float64(%s)", code)
	default:
		return fmt.Sprintf("int64(%s)", code)
	}
}

func rawUnwrap(boxed string, k value.Kind) string {
	if k == value.Numbar {
		return fmt.Sprintf("(%s).Numbar()", boxed)
	}
	return fmt.Sprintf("(%s).Numbr()", boxed)
}

// emitRaw lowers an expression StaticKind accepted to raw Go code of
// that kind. The returned string is side-effect free (RNG draws and
// checked operations land in temps emitted above it), so callers may
// embed it in larger expressions but must still use it exactly once.
// Literals land in temps too: the result is never a Go constant
// expression, which the Go compiler would fold at compile time and
// reject where LOLCODE wraps a NUMBR or truncates a NUMBAR at run time.
func (g *gen) emitRaw(e ast.Expr) (string, value.Kind, error) {
	switch n := e.(type) {
	case *ast.NumbrLit:
		t := g.tmp()
		g.w("%s := int64(%d)", t, n.Value)
		return t, value.Numbr, nil
	case *ast.NumbarLit:
		t := g.tmp()
		g.w("%s := float64(%g)", t, n.Value)
		return t, value.Numbar, nil
	case *ast.Me:
		return "int64(pe.ID())", value.Numbr, nil
	case *ast.MahFrenz:
		return "int64(pe.NPEs())", value.Numbr, nil
	case *ast.Whatevr:
		t := g.tmp()
		g.w("%s := pe.Rand().Int63n(1 << 31)", t)
		return t, value.Numbr, nil
	case *ast.Whatevar:
		t := g.tmp()
		g.w("%s := pe.Rand().Float64()", t)
		return t, value.Numbar, nil
	case *ast.VarRef:
		sym, err := g.symFor(n)
		if err != nil {
			return "", 0, err
		}
		if sym.Kind != sema.SymShared {
			return goName(sym), repKind(sym.Rep), nil
		}
		// A shared SRSLY scalar: every store casts, so converting the
		// boxed read yields the declared kind.
		boxed, err := g.readVar(n)
		if err != nil {
			return "", 0, err
		}
		t, errV := g.tmp(), g.tmp()
		g.w("%s, %s := (%s).To%s()", t, errV, boxed, kindName(sym.Type))
		g.failErr(errV)
		return t, sym.Type, nil
	case *ast.Index:
		sym, err := g.symFor(n.Arr)
		if err != nil {
			return "", 0, err
		}
		if sym.Kind == sema.SymShared {
			return g.getWord(n, sym)
		}
		boxed, err := g.readIndex(n)
		if err != nil {
			return "", 0, err
		}
		return rawUnwrap(boxed, sym.Type), sym.Type, nil
	case *ast.BinExpr:
		return g.emitRawBin(n)
	case *ast.UnExpr:
		return g.emitRawUn(n)
	case *ast.CastExpr:
		if ik, ok := g.info.StaticKind(n.X); ok {
			x, _, err := g.emitRaw(n.X)
			if err != nil {
				return "", 0, err
			}
			return rawPromote(x, ik, n.Type), n.Type, nil
		}
		boxed, err := g.expr(n.X)
		if err != nil {
			return "", 0, err
		}
		t, errV := g.tmp(), g.tmp()
		g.w("%s, %s := value.Cast(%s, value.%s)", t, errV, boxed, kindName(n.Type))
		g.failErr(errV)
		return rawUnwrap(t, n.Type), n.Type, nil
	}
	return "", 0, fmt.Errorf("gogen: internal: emitRaw on unvetted expression %T at %s", e, e.Pos())
}

// getWord reads a shared NUMBR or NUMBAR element with the typed get,
// which returns the raw int64 or float64 with GetElem's checks and cost.
func (g *gen) getWord(n *ast.Index, sym *sema.Symbol) (string, value.Kind, error) {
	idxT, err := g.indexExpr(n.IndexE)
	if err != nil {
		return "", 0, err
	}
	peExpr, remote, err := g.peOf(n.Arr)
	if err != nil {
		return "", 0, err
	}
	t, errV := g.tmp(), g.tmp()
	if remote {
		g.w("%s, %s := pe.Get%s(%s, %s, int(%s))", t, errV, kindName(sym.Type), peExpr, slotConst(sym), idxT)
	} else {
		g.w("%s, %s := pe.LocalGet%s(%s, int(%s))", t, errV, kindName(sym.Type), slotConst(sym), idxT)
	}
	g.failErr(errV)
	return t, sym.Type, nil
}

func (g *gen) emitRawBin(n *ast.BinExpr) (string, value.Kind, error) {
	x, xk, err := g.emitRaw(n.X)
	if err != nil {
		return "", 0, err
	}
	y, yk, err := g.emitRaw(n.Y)
	if err != nil {
		return "", 0, err
	}
	k := value.Numbr
	if xk == value.Numbar || yk == value.Numbar {
		k = value.Numbar
	}
	x, y = rawPromote(x, xk, k), rawPromote(y, yk, k)
	switch n.Op {
	case value.OpSum:
		return fmt.Sprintf("(%s + %s)", x, y), k, nil
	case value.OpDiff:
		return fmt.Sprintf("(%s - %s)", x, y), k, nil
	case value.OpProdukt:
		return fmt.Sprintf("(%s * %s)", x, y), k, nil
	case value.OpBiggrOf:
		// Builtin max/min match math.Max/Min on NaN and signed zero.
		return fmt.Sprintf("max(%s, %s)", x, y), k, nil
	case value.OpSmallrOf:
		return fmt.Sprintf("min(%s, %s)", x, y), k, nil
	case value.OpQuoshunt, value.OpMod:
		fn := map[value.BinOp]map[value.Kind]string{
			value.OpQuoshunt: {value.Numbr: "RawQuoshuntNumbr", value.Numbar: "RawQuoshuntNumbar"},
			value.OpMod:      {value.Numbr: "RawModNumbr", value.Numbar: "RawModNumbar"},
		}[n.Op][k]
		t, errV := g.tmp(), g.tmp()
		g.w("%s, %s := value.%s(%s, %s)", t, errV, fn, x, y)
		g.failErr(errV)
		return t, k, nil
	}
	return "", 0, fmt.Errorf("gogen: internal: emitRawBin on unvetted operator %v at %s", n.Op, n.Position)
}

func (g *gen) emitRawUn(n *ast.UnExpr) (string, value.Kind, error) {
	x, xk, err := g.emitRaw(n.X)
	if err != nil {
		return "", 0, err
	}
	switch n.Op {
	case value.OpSquar:
		// Temp the operand: embedding x twice would double its temps'
		// single-use contract (and re-read nothing, but keep it simple).
		t := g.tmp()
		g.w("%s := %s", t, x)
		return fmt.Sprintf("(%s * %s)", t, t), xk, nil
	case value.OpUnsquar, value.OpFlip:
		fn := "RawUnsquar"
		if n.Op == value.OpFlip {
			fn = "RawFlip"
		}
		t, errV := g.tmp(), g.tmp()
		g.w("%s, %s := value.%s(%s)", t, errV, fn, rawPromote(x, xk, value.Numbar))
		g.failErr(errV)
		return t, value.Numbar, nil
	}
	return "", 0, fmt.Errorf("gogen: internal: emitRawUn on unvetted operator %v at %s", n.Op, n.Position)
}

// emitRawCond lowers a comparison staticCondOK accepted to a raw Go bool
// expression. Mixed-kind equality promotes to float64, exactly
// value.Equal's numeric cross-kind rule.
func (g *gen) emitRawCond(e ast.Expr) (string, error) {
	switch n := e.(type) {
	case *ast.BinExpr:
		x, xk, err := g.emitRaw(n.X)
		if err != nil {
			return "", err
		}
		y, yk, err := g.emitRaw(n.Y)
		if err != nil {
			return "", err
		}
		k := value.Numbr
		if xk == value.Numbar || yk == value.Numbar {
			k = value.Numbar
		}
		x, y = rawPromote(x, xk, k), rawPromote(y, yk, k)
		op := map[value.BinOp]string{
			value.OpBigger:   ">",
			value.OpSmallr:   "<",
			value.OpBothSaem: "==",
			value.OpDiffrint: "!=",
		}[n.Op]
		return fmt.Sprintf("%s %s %s", x, op, y), nil
	case *ast.UnExpr: // NOT
		inner, err := g.emitRawCond(n.X)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("!(%s)", inner), nil
	}
	return "", fmt.Errorf("gogen: internal: emitRawCond on unvetted expression %T at %s", e, e.Pos())
}

// tryRawBox attempts the typed lowering of a composite expression in a
// boxed context: the arithmetic runs raw and only the result is boxed.
// ok=false means the caller must take the dynamic path.
func (g *gen) tryRawBox(e ast.Expr) (code string, ok bool, err error) {
	if k, isNum := g.info.StaticKind(e); isNum {
		raw, _, err := g.emitRaw(e)
		if err != nil {
			return "", false, err
		}
		if k == value.Numbar {
			return fmt.Sprintf("value.NewNumbar(%s)", raw), true, nil
		}
		return fmt.Sprintf("value.NewNumbr(%s)", raw), true, nil
	}
	if g.staticCondOK(e) {
		raw, err := g.emitRawCond(e)
		if err != nil {
			return "", false, err
		}
		return fmt.Sprintf("value.NewTroof(%s)", raw), true, nil
	}
	return "", false, nil
}

// storeRaw emits `<sym> = <rhs>` for an unboxed symbol from an arbitrary
// source expression: raw when the RHS kind is static, otherwise boxed +
// Cast + unwrap (the Cast is what a boxed store to a SRSLY variable does,
// so error behaviour is identical).
func (g *gen) storeRaw(sym *sema.Symbol, rhs ast.Expr) error {
	want := repKind(sym.Rep)
	if k, ok := g.info.StaticKind(rhs); ok {
		code, _, err := g.emitRaw(rhs)
		if err != nil {
			return err
		}
		g.w("%s = %s", goName(sym), rawPromote(code, k, want))
		return nil
	}
	boxed, err := g.expr(rhs)
	if err != nil {
		return err
	}
	t, errV := g.tmp(), g.tmp()
	g.w("%s, %s := value.Cast(%s, value.%s)", t, errV, boxed, kindName(want))
	g.failErr(errV)
	g.w("%s = %s", goName(sym), rawUnwrap(t, want))
	return nil
}
