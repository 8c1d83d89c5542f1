package gogen

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/value"
)

// capture runs f with a fresh buffer and returns what it emitted, restoring
// the outer buffer afterwards. Used to decide whether a label is referenced
// before committing to a labeled construct.
func (g *gen) capture(f func() error) (string, error) {
	saved := g.buf
	g.buf = strings.Builder{}
	err := f()
	out := g.buf.String()
	g.buf = saved
	return out, err
}

func (g *gen) stmts(ss []ast.Stmt) error {
	for _, s := range ss {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) stmt(s ast.Stmt) error {
	switch n := s.(type) {
	case *ast.Decl:
		return g.decl(n)

	case *ast.Assign:
		// Unboxed targets take the raw RHS directly — the hot-loop form
		// `x R SUM OF x AN ...` compiles to one Go assignment.
		if t, ok := n.Target.(*ast.VarRef); ok {
			if sym, serr := g.symFor(t); serr == nil && sym.Rep != sema.RepBoxed {
				return g.storeRaw(sym, n.Value)
			}
		}
		v, err := g.expr(n.Value)
		if err != nil {
			return err
		}
		return g.store(n.Target, v)

	case *ast.CastStmt:
		cur, err := g.load(n.Target)
		if err != nil {
			return err
		}
		t, e := g.tmp(), g.tmp()
		g.w("%s, %s := value.Cast(%s, value.%s)", t, e, cur, kindName(n.Type))
		g.failErr(e)
		return g.store(n.Target, t)

	case *ast.Visible:
		parts := make([]string, 0, len(n.Args)+1)
		for _, a := range n.Args {
			v, err := g.expr(a)
			if err != nil {
				return err
			}
			parts = append(parts, fmt.Sprintf("(%s).Display()", v))
		}
		if !n.NoNewline {
			parts = append(parts, `"\n"`)
		}
		dst := "peio.Out"
		if n.Invisible {
			dst = "peio.Err"
		}
		g.w("%s.WriteString(%s)", dst, strings.Join(parts, "+"))
		return nil

	case *ast.Gimmeh:
		// Shared stdin: lines go to whichever PE asks first, the same
		// arbitration the in-process engines use. EOF reads as "".
		t := g.tmp()
		g.w("%s, _ := peio.Stdin.Line()", t)
		return g.store(n.Target, fmt.Sprintf("value.NewYarn(%s)", t))

	case *ast.ExprStmt:
		v, err := g.expr(n.X)
		if err != nil {
			return err
		}
		g.w("%s = %s", g.itName(), v)
		return nil

	case *ast.If:
		return g.ifStmt(n)

	case *ast.Switch:
		return g.switchStmt(n)

	case *ast.Loop:
		return g.loop(n)

	case *ast.Gtfo:
		if len(g.loops) > 0 {
			g.w("break %s", g.loops[len(g.loops)-1])
			return nil
		}
		if g.inFunc {
			g.w("return value.NOOB, nil // GTFO from a function returns NOOB")
			return nil
		}
		return fmt.Errorf("gogen: %s: GTFO outside loop, switch, or function", n.Position)

	case *ast.FoundYr:
		v, err := g.expr(n.X)
		if err != nil {
			return err
		}
		if !g.inFunc {
			return fmt.Errorf("gogen: %s: FOUND YR outside a function", n.Position)
		}
		g.w("return %s, nil", v)
		return nil

	case *ast.FuncDecl:
		return nil // emitted separately

	case *ast.Barrier:
		e := g.tmp()
		g.w("if %s := pe.Barrier(); %s != nil {", e, e)
		g.ind++
		if g.inFunc {
			g.w("return value.NOOB, %s", e)
		} else {
			g.w("return %s", e)
		}
		g.ind--
		g.w("}")
		return nil

	case *ast.Lock:
		return g.lock(n)

	case *ast.TxtStmt:
		t, err := g.peTarget(n.Target)
		if err != nil {
			return err
		}
		g.pred = append(g.pred, t)
		err = g.stmt(n.Stmt)
		g.pred = g.pred[:len(g.pred)-1]
		return err

	case *ast.TxtBlock:
		t, err := g.peTarget(n.Target)
		if err != nil {
			return err
		}
		g.pred = append(g.pred, t)
		err = g.stmts(n.Body)
		g.pred = g.pred[:len(g.pred)-1]
		return err
	}
	return fmt.Errorf("gogen: unhandled statement %T at %s", s, s.Pos())
}

func (g *gen) itName() string { return goName(g.scope.Order[0]) }

func (g *gen) decl(n *ast.Decl) error {
	sym, _ := n.Sym.(*sema.Symbol)
	if sym == nil {
		return fmt.Errorf("gogen: %s: unresolved declaration %s", n.Position, n.Name)
	}

	if n.IsArray {
		sz, err := g.expr(n.Size)
		if err != nil {
			return err
		}
		szT, szE := g.tmp(), g.tmp()
		g.w("%s, %s := (%s).ToNumbr()", szT, szE, sz)
		g.failErr(szE)
		if sym.Kind == sema.SymShared {
			e := g.tmp()
			g.w("if %s := pe.AllocArray(%s, int(%s)); %s != nil {", e, slotConst(sym), szT, e)
			g.ind++
			if g.inFunc {
				g.w("return value.NOOB, %s", e)
			} else {
				g.w("return %s", e)
			}
			g.ind--
			g.w("}")
			return nil
		}
		arrT, arrE := g.tmp(), g.tmp()
		g.w("%s, %s := value.NewArrayOf(value.%s, int(%s))", arrT, arrE, kindName(n.Type), szT)
		g.failErr(arrE)
		g.w("%s = value.NewArray(%s)", goName(sym), arrT)
		return nil
	}

	if sym.Rep != sema.RepBoxed {
		if n.Init == nil {
			g.w("%s = 0", goName(sym))
			return nil
		}
		return g.storeRaw(sym, n.Init)
	}

	init := "value.NOOB"
	if n.Typed {
		init = zeroLiteral(n)
	}
	if n.Init != nil {
		v, err := g.expr(n.Init)
		if err != nil {
			return err
		}
		init = v
		if sym.Static {
			t, e := g.tmp(), g.tmp()
			g.w("%s, %s := value.Cast(%s, value.%s)", t, e, v, kindName(sym.Type))
			g.failErr(e)
			init = t
		}
	}
	if sym.Kind == sema.SymShared {
		e := g.tmp()
		g.w("if %s := pe.InitScalar(%s, %s); %s != nil {", e, slotConst(sym), init, e)
		g.ind++
		if g.inFunc {
			g.w("return value.NOOB, %s", e)
		} else {
			g.w("return %s", e)
		}
		g.ind--
		g.w("}")
		return nil
	}
	g.w("%s = %s", goName(sym), init)
	return nil
}

func zeroLiteral(n *ast.Decl) string {
	switch n.Type {
	case value.Numbr:
		return "value.NewNumbr(0)"
	case value.Numbar:
		return "value.NewNumbar(0)"
	case value.Yarn:
		return `value.NewYarn("")`
	case value.Troof:
		return "value.NewTroof(false)"
	}
	return "value.NOOB"
}

func (g *gen) ifStmt(n *ast.If) error {
	g.w("if %s.ToTroof() {", g.itName())
	g.ind++
	if err := g.stmts(n.Then); err != nil {
		return err
	}
	g.ind--
	if len(n.Mebbes) > 0 || n.Else != nil {
		g.w("} else {")
		g.ind++
		if err := g.mebbeChain(n.Mebbes, n.Else); err != nil {
			return err
		}
		g.ind--
	}
	g.w("}")
	return nil
}

// mebbeChain emits the MEBBE alternatives as nested if/else, assigning each
// tested condition to IT the way the dynamic backends do.
func (g *gen) mebbeChain(mebbes []ast.MebbeClause, elseB []ast.Stmt) error {
	if len(mebbes) == 0 {
		if elseB != nil {
			return g.stmts(elseB)
		}
		return nil
	}
	m := mebbes[0]
	cond, err := g.expr(m.Cond)
	if err != nil {
		return err
	}
	condT := g.tmp()
	g.w("%s := %s", condT, cond)
	g.w("%s = %s", g.itName(), condT)
	g.w("if %s.ToTroof() {", condT)
	g.ind++
	if err := g.stmts(m.Body); err != nil {
		return err
	}
	g.ind--
	if len(mebbes) > 1 || elseB != nil {
		g.w("} else {")
		g.ind++
		if err := g.mebbeChain(mebbes[1:], elseB); err != nil {
			return err
		}
		g.ind--
	}
	g.w("}")
	return nil
}

func (g *gen) switchStmt(n *ast.Switch) error {
	label := g.label()
	matched := g.tmp()

	body, err := g.capture(func() error {
		g.loops = append(g.loops, label)
		defer func() { g.loops = g.loops[:len(g.loops)-1] }()
		for _, cs := range n.Cases {
			lit, err := g.expr(cs.Lit)
			if err != nil {
				return err
			}
			g.w("if !%s && value.Equal(%s, %s) {", matched, g.itName(), lit)
			g.ind++
			g.w("%s = true", matched)
			g.ind--
			g.w("}")
			g.w("if %s {", matched)
			g.ind++
			if err := g.stmts(cs.Body); err != nil {
				return err
			}
			g.ind--
			g.w("}")
		}
		if n.Default != nil {
			g.w("if !%s {", matched)
			g.ind++
			if err := g.stmts(n.Default); err != nil {
				return err
			}
			g.ind--
			g.w("}")
		}
		return nil
	})
	if err != nil {
		return err
	}

	g.w("%s := false", matched)
	g.w("_ = %s", matched)
	if strings.Contains(body, "break "+label) {
		g.w("%s:", label)
		g.w("for {")
	} else {
		g.w("for {")
	}
	g.ind++
	g.buf.WriteString(body)
	g.w("break")
	g.ind--
	g.w("}")
	return nil
}

func (g *gen) loop(n *ast.Loop) error {
	label := g.label()

	var counter, saved string
	var counterRaw bool
	if n.Var != "" {
		sym, _ := n.Sym.(*sema.Symbol)
		if sym == nil {
			return fmt.Errorf("gogen: %s: unresolved loop variable %s", n.Position, n.Var)
		}
		counter = goName(sym)
		counterRaw = sym.Rep == sema.RepInt
		if sym.Kind == sema.SymLoopVar {
			// An implicit counter is restored on exit, as the other
			// engines restore it: an inner loop may count the outer
			// loop's counter.
			saved = g.tmp()
			g.w("%s := %s", saved, counter)
		}
		if counterRaw {
			g.w("%s = 0", counter)
		} else {
			g.w("%s = value.NewNumbr(0)", counter)
		}
	}

	body, err := g.capture(func() error {
		g.loops = append(g.loops, label)
		defer func() { g.loops = g.loops[:len(g.loops)-1] }()
		if n.Cond != nil {
			// The header comparison is the per-iteration tax every loop
			// pays; a statically-typed condition tests a raw Go bool.
			var cond string
			var err error
			if g.staticCondOK(n.Cond) {
				cond, err = g.emitRawCond(n.Cond)
				cond = "(" + cond + ")"
			} else {
				cond, err = g.expr(n.Cond)
				cond = fmt.Sprintf("(%s).ToTroof()", cond)
			}
			if err != nil {
				return err
			}
			if n.CondKind == ast.CondTil {
				g.w("if %s {", cond)
			} else {
				g.w("if !%s {", cond)
			}
			g.ind++
			g.w("break %s", label)
			g.ind--
			g.w("}")
		}
		if err := g.stmts(n.Body); err != nil {
			return err
		}
		switch {
		case counter == "":
		case counterRaw:
			if n.Op == ast.LoopNerfin {
				g.w("%s--", counter)
			} else {
				g.w("%s++", counter)
			}
		default:
			cur, e := g.tmp(), g.tmp()
			g.w("%s, %s := %s.ToNumbr()", cur, e, counter)
			g.failErr(e)
			if n.Op == ast.LoopNerfin {
				g.w("%s = value.NewNumbr(%s - 1)", counter, cur)
			} else {
				g.w("%s = value.NewNumbr(%s + 1)", counter, cur)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	if strings.Contains(body, "break "+label) || strings.Contains(body, "continue "+label) {
		g.w("%s:", label)
	}
	g.w("for {")
	g.ind++
	g.buf.WriteString(body)
	g.ind--
	g.w("}")
	if saved != "" {
		g.w("%s = %s", counter, saved)
	}
	return nil
}

func (g *gen) lock(n *ast.Lock) error {
	sym, err := g.symFor(n.Var)
	if err != nil {
		return err
	}
	if sym.Lock < 0 {
		return fmt.Errorf("gogen: %s: %v on %s without a lock", n.Position, n.Action, n.Var.Name)
	}
	id := lockConst(sym)
	switch n.Action {
	case ast.LockAcquire:
		e := g.tmp()
		g.w("if %s := pe.SetLock(%s); %s != nil {", e, id, e)
		g.ind++
		if g.inFunc {
			g.w("return value.NOOB, %s", e)
		} else {
			g.w("return %s", e)
		}
		g.ind--
		g.w("}")
		g.w("%s = value.NewTroof(true)", g.itName())
	case ast.LockTry:
		ok, e := g.tmp(), g.tmp()
		g.w("%s, %s := pe.TestLock(%s)", ok, e, id)
		g.failErr(e)
		g.w("%s = value.NewTroof(%s)", g.itName(), ok)
	case ast.LockRelease:
		e := g.tmp()
		g.w("if %s := pe.ClearLock(%s); %s != nil {", e, id, e)
		g.ind++
		if g.inFunc {
			g.w("return value.NOOB, %s", e)
		} else {
			g.w("return %s", e)
		}
		g.ind--
		g.w("}")
	}
	return nil
}

// peTarget emits evaluation and validation of a TXT MAH BFF target,
// returning the int temp holding the PE rank.
func (g *gen) peTarget(e ast.Expr) (string, error) {
	v, err := g.expr(e)
	if err != nil {
		return "", err
	}
	t, errV := g.tmp(), g.tmp()
	g.w("%s, %s := (%s).ToNumbr()", t, errV, v)
	g.failErr(errV)
	g.w("if %s < 0 || %s >= int64(pe.NPEs()) {", t, t)
	g.ind++
	msg := fmt.Sprintf(`fmt.Errorf("TXT MAH BFF %%d: no such friend (MAH FRENZ is %%d)", %s, pe.NPEs())`, t)
	if g.inFunc {
		g.w("return value.NOOB, %s", msg)
	} else {
		g.w("return %s", msg)
	}
	g.ind--
	g.w("}")
	ti := g.tmp()
	g.w("%s := int(%s)", ti, t)
	return ti, nil
}
