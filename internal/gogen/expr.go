package gogen

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/value"
)

func opGoName(op value.BinOp) string {
	switch op {
	case value.OpSum:
		return "value.OpSum"
	case value.OpDiff:
		return "value.OpDiff"
	case value.OpProdukt:
		return "value.OpProdukt"
	case value.OpQuoshunt:
		return "value.OpQuoshunt"
	case value.OpMod:
		return "value.OpMod"
	case value.OpBiggrOf:
		return "value.OpBiggrOf"
	case value.OpSmallrOf:
		return "value.OpSmallrOf"
	case value.OpBigger:
		return "value.OpBigger"
	case value.OpSmallr:
		return "value.OpSmallr"
	case value.OpBothSaem:
		return "value.OpBothSaem"
	case value.OpDiffrint:
		return "value.OpDiffrint"
	case value.OpBothOf:
		return "value.OpBothOf"
	case value.OpEitherOf:
		return "value.OpEitherOf"
	case value.OpWonOf:
		return "value.OpWonOf"
	}
	return fmt.Sprintf("value.BinOp(%d)", int(op))
}

func unOpGoName(op value.UnOp) string {
	switch op {
	case value.OpNot:
		return "value.OpNot"
	case value.OpSquar:
		return "value.OpSquar"
	case value.OpUnsquar:
		return "value.OpUnsquar"
	case value.OpFlip:
		return "value.OpFlip"
	}
	return fmt.Sprintf("value.UnOp(%d)", int(op))
}

// expr emits evaluation code for e and returns a Go expression (usually a
// temp variable) holding the value.Value result.
func (g *gen) expr(e ast.Expr) (string, error) {
	switch n := e.(type) {
	case *ast.NumbrLit:
		return fmt.Sprintf("value.NewNumbr(%d)", n.Value), nil

	case *ast.NumbarLit:
		return fmt.Sprintf("value.NewNumbar(%g)", n.Value), nil

	case *ast.TroofLit:
		return fmt.Sprintf("value.NewTroof(%v)", n.Value), nil

	case *ast.NoobLit:
		return "value.NOOB", nil

	case *ast.YarnLit:
		return g.yarn(n)

	case *ast.VarRef:
		return g.readVar(n)

	case *ast.Index:
		return g.readIndex(n)

	case *ast.BinExpr:
		if code, ok, err := g.tryRawBox(n); ok || err != nil {
			return code, err
		}
		return g.binExpr(n)

	case *ast.UnExpr:
		if code, ok, err := g.tryRawBox(n); ok || err != nil {
			return code, err
		}
		x, err := g.expr(n.X)
		if err != nil {
			return "", err
		}
		t, errV := g.tmp(), g.tmp()
		g.w("%s, %s := value.Unary(%s, %s)", t, errV, unOpGoName(n.Op), x)
		g.failErr(errV)
		return t, nil

	case *ast.NaryExpr:
		return g.naryExpr(n)

	case *ast.CastExpr:
		x, err := g.expr(n.X)
		if err != nil {
			return "", err
		}
		t, errV := g.tmp(), g.tmp()
		g.w("%s, %s := value.Cast(%s, value.%s)", t, errV, x, kindName(n.Type))
		g.failErr(errV)
		return t, nil

	case *ast.Call:
		args := make([]string, 0, len(n.Args)+2)
		args = append(args, "pe", "peio")
		for _, a := range n.Args {
			v, err := g.expr(a)
			if err != nil {
				return "", err
			}
			args = append(args, v)
		}
		t, errV := g.tmp(), g.tmp()
		g.w("%s, %s := fn_%s(%s)", t, errV, sanitize(n.Name), strings.Join(args, ", "))
		g.failErr(errV)
		return t, nil

	case *ast.Srs:
		return "", fmt.Errorf(
			"gogen: %s: SRS resolves identifiers at runtime and cannot be lowered to static Go variables; use the interp or compile backend for SRS programs",
			n.Position)

	case *ast.Me:
		return "value.NewNumbr(int64(pe.ID()))", nil

	case *ast.MahFrenz:
		return "value.NewNumbr(int64(pe.NPEs()))", nil

	case *ast.Whatevr:
		return "value.NewNumbr(pe.Rand().Int63n(1 << 31))", nil

	case *ast.Whatevar:
		return "value.NewNumbar(pe.Rand().Float64())", nil
	}
	return "", fmt.Errorf("gogen: unhandled expression %T at %s", e, e.Pos())
}

func (g *gen) binExpr(n *ast.BinExpr) (string, error) {
	// BOTH OF / EITHER OF short-circuit like the other backends.
	if n.Op == value.OpBothOf || n.Op == value.OpEitherOf {
		t := g.tmp()
		g.w("var %s value.Value", t)
		x, err := g.expr(n.X)
		if err != nil {
			return "", err
		}
		stop := "!(%s).ToTroof()"
		short := "value.NewTroof(false)"
		if n.Op == value.OpEitherOf {
			stop = "(%s).ToTroof()"
			short = "value.NewTroof(true)"
		}
		g.w("if "+stop+" {", x)
		g.ind++
		g.w("%s = %s", t, short)
		g.ind--
		g.w("} else {")
		g.ind++
		y, err := g.expr(n.Y)
		if err != nil {
			return "", err
		}
		g.w("%s = value.NewTroof((%s).ToTroof())", t, y)
		g.ind--
		g.w("}")
		return t, nil
	}

	x, err := g.expr(n.X)
	if err != nil {
		return "", err
	}
	y, err := g.expr(n.Y)
	if err != nil {
		return "", err
	}
	t, errV := g.tmp(), g.tmp()
	g.w("%s, %s := value.Binary(%s, %s, %s)", t, errV, opGoName(n.Op), x, y)
	g.failErr(errV)
	return t, nil
}

func (g *gen) naryExpr(n *ast.NaryExpr) (string, error) {
	switch n.Op {
	case value.OpAllOf, value.OpAnyOf:
		// Short-circuit scan over the operands.
		t := g.tmp()
		label := g.label()
		isAll := n.Op == value.OpAllOf
		if isAll {
			g.w("%s := value.NewTroof(true)", t)
		} else {
			g.w("%s := value.NewTroof(false)", t)
		}
		g.w("%s:", label)
		g.w("for {")
		g.ind++
		for _, o := range n.Operands {
			v, err := g.expr(o)
			if err != nil {
				return "", err
			}
			if isAll {
				g.w("if !(%s).ToTroof() {", v)
				g.ind++
				g.w("%s = value.NewTroof(false)", t)
			} else {
				g.w("if (%s).ToTroof() {", v)
				g.ind++
				g.w("%s = value.NewTroof(true)", t)
			}
			g.w("break %s", label)
			g.ind--
			g.w("}")
		}
		g.w("break %s", label)
		g.ind--
		g.w("}")
		return t, nil
	default: // SMOOSH
		vs := make([]string, 0, len(n.Operands))
		for _, o := range n.Operands {
			v, err := g.expr(o)
			if err != nil {
				return "", err
			}
			vs = append(vs, v)
		}
		t, errV := g.tmp(), g.tmp()
		g.w("%s, %s := value.Nary(value.OpSmoosh, []value.Value{%s})", t, errV, strings.Join(vs, ", "))
		g.failErr(errV)
		return t, nil
	}
}

// yarn emits a YARN literal; each :{var} interpolation reads the
// reference sema bound.
func (g *gen) yarn(n *ast.YarnLit) (string, error) {
	if len(n.Segs) == 0 {
		return `value.NewYarn("")`, nil
	}
	if len(n.Segs) == 1 && n.Segs[0].Var == "" {
		return fmt.Sprintf("value.NewYarn(%q)", n.Segs[0].Text), nil
	}
	parts := make([]string, 0, len(n.Segs))
	refs := n.Refs
	for _, s := range n.Segs {
		if s.Var == "" {
			parts = append(parts, fmt.Sprintf("%q", s.Text))
			continue
		}
		v, err := g.readVar(refs[0])
		if err != nil {
			return "", err
		}
		refs = refs[1:]
		parts = append(parts, fmt.Sprintf("(%s).Display()", v))
	}
	return fmt.Sprintf("value.NewYarn(%s)", strings.Join(parts, "+")), nil
}

// peOf returns the Go expression for the PE a reference addresses.
func (g *gen) peOf(n *ast.VarRef) (expr string, remote bool, err error) {
	if n.Space == ast.SpaceUr {
		t, err := g.predTarget(n.Position)
		if err != nil {
			return "", false, err
		}
		return t, true, nil
	}
	return "pe.ID()", false, nil
}

func (g *gen) readVar(n *ast.VarRef) (string, error) {
	sym, err := g.symFor(n)
	if err != nil {
		return "", err
	}
	if sym.Kind != sema.SymShared {
		switch sym.Rep {
		case sema.RepInt:
			return fmt.Sprintf("value.NewNumbr(%s)", goName(sym)), nil
		case sema.RepFloat:
			return fmt.Sprintf("value.NewNumbar(%s)", goName(sym)), nil
		}
		return goName(sym), nil
	}

	peExpr, remote, err := g.peOf(n)
	if err != nil {
		return "", err
	}
	if sym.IsArray {
		t, errV := g.tmp(), g.tmp()
		g.w("%s, %s := pe.GetArray(%s, %s)", t, errV, peExpr, slotConst(sym))
		g.failErr(errV)
		return fmt.Sprintf("value.NewArray(%s)", t), nil
	}
	t, errV := g.tmp(), g.tmp()
	if remote {
		g.w("%s, %s := pe.Get(%s, %s)", t, errV, peExpr, slotConst(sym))
	} else {
		g.w("%s, %s := pe.LocalGet(%s)", t, errV, slotConst(sym))
	}
	g.failErr(errV)
	return t, nil
}

// indexExpr emits an array index as a raw int64 expression; statically
// numeric indexes skip the boxed ToNumbr round-trip.
func (g *gen) indexExpr(e ast.Expr) (string, error) {
	if k, ok := g.info.StaticKind(e); ok {
		code, _, err := g.emitRaw(e)
		if err != nil {
			return "", err
		}
		return rawPromote(code, k, value.Numbr), nil
	}
	idx, err := g.expr(e)
	if err != nil {
		return "", err
	}
	idxT, idxE := g.tmp(), g.tmp()
	g.w("%s, %s := (%s).ToNumbr()", idxT, idxE, idx)
	g.failErr(idxE)
	return idxT, nil
}

func (g *gen) readIndex(n *ast.Index) (string, error) {
	sym, err := g.symFor(n.Arr)
	if err != nil {
		return "", err
	}
	idxT, err := g.indexExpr(n.IndexE)
	if err != nil {
		return "", err
	}

	if sym.Kind == sema.SymShared {
		peExpr, remote, err := g.peOf(n.Arr)
		if err != nil {
			return "", err
		}
		t, errV := g.tmp(), g.tmp()
		if remote {
			g.w("%s, %s := pe.GetElem(%s, %s, int(%s))", t, errV, peExpr, slotConst(sym), idxT)
			g.failErr(errV)
			return t, nil
		}
		g.w("%s, %s := pe.LocalGetElem(%s, int(%s))", t, errV, slotConst(sym), idxT)
		g.failErr(errV)
		return t, nil
	}

	t, errV := g.tmp(), g.tmp()
	g.w("if %s.Kind() != value.ArrayK {", goName(sym))
	g.ind++
	g.errReturnf(`fmt.Errorf("%s is not an array")`, n.Arr.Name)
	g.ind--
	g.w("}")
	g.w("%s, %s := %s.Array().GetChecked(int(%s))", t, errV, goName(sym), idxT)
	g.failErr(errV)
	return t, nil
}

// errReturnf emits a `return <error>` for the current context.
func (g *gen) errReturnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if g.inFunc {
		g.w("return value.NOOB, %s", msg)
	} else {
		g.w("return %s", msg)
	}
}

// load emits a read of an assignment target (for IS NOW A).
func (g *gen) load(target ast.Expr) (string, error) {
	switch n := target.(type) {
	case *ast.VarRef:
		return g.readVar(n)
	case *ast.Index:
		return g.readIndex(n)
	}
	return "", fmt.Errorf("gogen: %s: not a readable target", target.Pos())
}

// store emits an assignment of the Go expression v into target.
func (g *gen) store(target ast.Expr, v string) error {
	switch n := target.(type) {
	case *ast.VarRef:
		return g.storeVar(n, v)
	case *ast.Index:
		return g.storeIndex(n, v)
	case *ast.Srs:
		return fmt.Errorf("gogen: %s: SRS targets are not supported by the Go emitter", n.Position)
	}
	return fmt.Errorf("gogen: %s: cannot assign to this expression", target.Pos())
}

func (g *gen) storeVar(n *ast.VarRef, v string) error {
	sym, err := g.symFor(n)
	if err != nil {
		return err
	}
	if sym.Rep != sema.RepBoxed {
		// Unboxed target: cast to the static kind (the same Cast a boxed
		// store performs) and keep only the raw payload.
		want := repKind(sym.Rep)
		t, errV := g.tmp(), g.tmp()
		g.w("%s, %s := value.Cast(%s, value.%s)", t, errV, v, kindName(want))
		g.failErr(errV)
		g.w("%s = %s", goName(sym), rawUnwrap(t, want))
		return nil
	}
	if sym.Static && !sym.IsArray {
		t, errV := g.tmp(), g.tmp()
		g.w("%s, %s := value.Cast(%s, value.%s)", t, errV, v, kindName(sym.Type))
		g.failErr(errV)
		v = t
	}
	if sym.Kind == sema.SymShared {
		peExpr, _, err := g.peOf(n)
		if err != nil {
			return err
		}
		if sym.IsArray {
			g.w("if (%s).Kind() != value.ArrayK {", v)
			g.ind++
			g.errReturnf(`fmt.Errorf("cannot assign a non-array to array %s")`, n.Name)
			g.ind--
			g.w("}")
			e := g.tmp()
			g.w("if %s := pe.PutArray(%s, %s, (%s).Array()); %s != nil {", e, peExpr, slotConst(sym), v, e)
			g.ind++
			g.errReturnf("%s", e)
			g.ind--
			g.w("}")
			return nil
		}
		e := g.tmp()
		g.w("if %s := pe.Put(%s, %s, %s); %s != nil {", e, peExpr, slotConst(sym), v, e)
		g.ind++
		g.errReturnf("%s", e)
		g.ind--
		g.w("}")
		return nil
	}
	if sym.IsArray {
		vt := g.tmp()
		g.w("%s := %s", vt, v)
		g.w("if %s.Kind() == value.ArrayK && %s.Kind() == value.ArrayK {", vt, goName(sym))
		g.ind++
		e := g.tmp()
		g.w("if %s := %s.Array().CopyFrom(%s.Array()); %s != nil {", e, goName(sym), vt, e)
		g.ind++
		g.errReturnf("%s", e)
		g.ind--
		g.w("}")
		g.ind--
		g.w("} else {")
		g.ind++
		g.w("%s = %s", goName(sym), vt)
		g.ind--
		g.w("}")
		return nil
	}
	g.w("%s = %s", goName(sym), v)
	return nil
}

func (g *gen) storeIndex(n *ast.Index, v string) error {
	sym, err := g.symFor(n.Arr)
	if err != nil {
		return err
	}
	idxT, err := g.indexExpr(n.IndexE)
	if err != nil {
		return err
	}

	if sym.Kind == sema.SymShared {
		peExpr, remote, err := g.peOf(n.Arr)
		if err != nil {
			return err
		}
		if remote {
			e := g.tmp()
			g.w("if %s := pe.PutElem(%s, %s, int(%s), %s); %s != nil {", e, peExpr, slotConst(sym), idxT, v, e)
			g.ind++
			g.errReturnf("%s", e)
			g.ind--
			g.w("}")
			return nil
		}
		e := g.tmp()
		g.w("if %s := pe.LocalSetElem(%s, int(%s), %s); %s != nil {", e, slotConst(sym), idxT, v, e)
		g.ind++
		g.errReturnf("%s", e)
		g.ind--
		g.w("}")
		return nil
	}

	g.w("if %s.Kind() != value.ArrayK {", goName(sym))
	g.ind++
	g.errReturnf(`fmt.Errorf("%s is not an array")`, n.Arr.Name)
	g.ind--
	g.w("}")
	e := g.tmp()
	g.w("if %s := %s.Array().Set(int(%s), %s); %s != nil {", e, goName(sym), idxT, v, e)
	g.ind++
	g.errReturnf("%s", e)
	g.ind--
	g.w("}")
	return nil
}
