package compile

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/token"
	"repro/internal/value"
)

// expr compiles an expression to a closure. Symbol resolution, operator
// dispatch and static casts happen here, once, instead of on every
// evaluation. Statically typed subtrees take the raw float64/int64 fast
// paths from specialize.go.
func (c *compiler) expr(e ast.Expr) (exprFn, error) {
	if !c.noSpec {
		switch e.(type) {
		case *ast.BinExpr, *ast.UnExpr, *ast.Index:
			// Only composite nodes benefit; leaves are already cheap.
			if fn, ok := c.specializedExpr(e); ok {
				return fn, nil
			}
		}
	}
	switch n := e.(type) {
	case *ast.NumbrLit:
		v := value.NewNumbr(n.Value)
		return func(*env) (value.Value, error) { return v, nil }, nil

	case *ast.NumbarLit:
		v := value.NewNumbar(n.Value)
		return func(*env) (value.Value, error) { return v, nil }, nil

	case *ast.TroofLit:
		v := value.NewTroof(n.Value)
		return func(*env) (value.Value, error) { return v, nil }, nil

	case *ast.NoobLit:
		return func(*env) (value.Value, error) { return value.NOOB, nil }, nil

	case *ast.YarnLit:
		return c.yarn(n)

	case *ast.VarRef:
		return c.readVar(n)

	case *ast.Index:
		return c.readIndex(n)

	case *ast.BinExpr:
		return c.binExpr(n)

	case *ast.UnExpr:
		x, err := c.expr(n.X)
		if err != nil {
			return nil, err
		}
		op, pos := n.Op, n.Position
		return func(e *env) (value.Value, error) {
			xv, err := x(e)
			if err != nil {
				return value.NOOB, err
			}
			v, err := value.Unary(op, xv)
			return v, rerr(pos, err)
		}, nil

	case *ast.NaryExpr:
		return c.naryExpr(n)

	case *ast.CastExpr:
		x, err := c.expr(n.X)
		if err != nil {
			return nil, err
		}
		typ, pos := n.Type, n.Position
		return func(e *env) (value.Value, error) {
			xv, err := x(e)
			if err != nil {
				return value.NOOB, err
			}
			v, err := value.Cast(xv, typ)
			return v, rerr(pos, err)
		}, nil

	case *ast.Call:
		return c.call(n)

	case *ast.Srs:
		return c.srsRead(n)

	case *ast.Me:
		return func(e *env) (value.Value, error) {
			return value.NewNumbr(int64(e.pe.ID())), nil
		}, nil

	case *ast.MahFrenz:
		return func(e *env) (value.Value, error) {
			return value.NewNumbr(int64(e.pe.NPEs())), nil
		}, nil

	case *ast.Whatevr:
		return func(e *env) (value.Value, error) {
			return value.NewNumbr(e.pe.Rand().Int63n(1 << 31)), nil
		}, nil

	case *ast.Whatevar:
		return func(e *env) (value.Value, error) {
			return value.NewNumbar(e.pe.Rand().Float64()), nil
		}, nil
	}
	return nil, fmt.Errorf("compile: unhandled expression %T at %s", e, e.Pos())
}

func (c *compiler) binExpr(n *ast.BinExpr) (exprFn, error) {
	x, err := c.expr(n.X)
	if err != nil {
		return nil, err
	}
	y, err := c.expr(n.Y)
	if err != nil {
		return nil, err
	}
	op, pos := n.Op, n.Position
	switch op {
	case value.OpBothOf:
		return func(e *env) (value.Value, error) {
			xv, err := x(e)
			if err != nil {
				return value.NOOB, err
			}
			if !xv.ToTroof() {
				return value.NewTroof(false), nil
			}
			yv, err := y(e)
			if err != nil {
				return value.NOOB, err
			}
			return value.NewTroof(yv.ToTroof()), nil
		}, nil
	case value.OpEitherOf:
		return func(e *env) (value.Value, error) {
			xv, err := x(e)
			if err != nil {
				return value.NOOB, err
			}
			if xv.ToTroof() {
				return value.NewTroof(true), nil
			}
			yv, err := y(e)
			if err != nil {
				return value.NOOB, err
			}
			return value.NewTroof(yv.ToTroof()), nil
		}, nil
	}
	return func(e *env) (value.Value, error) {
		xv, err := x(e)
		if err != nil {
			return value.NOOB, err
		}
		yv, err := y(e)
		if err != nil {
			return value.NOOB, err
		}
		v, err := value.Binary(op, xv, yv)
		return v, rerr(pos, err)
	}, nil
}

func (c *compiler) naryExpr(n *ast.NaryExpr) (exprFn, error) {
	ops := make([]exprFn, len(n.Operands))
	for i, o := range n.Operands {
		fn, err := c.expr(o)
		if err != nil {
			return nil, err
		}
		ops[i] = fn
	}
	op, pos := n.Op, n.Position
	switch op {
	case value.OpAllOf:
		return func(e *env) (value.Value, error) {
			for _, fn := range ops {
				v, err := fn(e)
				if err != nil {
					return value.NOOB, err
				}
				if !v.ToTroof() {
					return value.NewTroof(false), nil
				}
			}
			return value.NewTroof(true), nil
		}, nil
	case value.OpAnyOf:
		return func(e *env) (value.Value, error) {
			for _, fn := range ops {
				v, err := fn(e)
				if err != nil {
					return value.NOOB, err
				}
				if v.ToTroof() {
					return value.NewTroof(true), nil
				}
			}
			return value.NewTroof(false), nil
		}, nil
	}
	return func(e *env) (value.Value, error) {
		vs := make([]value.Value, len(ops))
		for i, fn := range ops {
			v, err := fn(e)
			if err != nil {
				return value.NOOB, err
			}
			vs[i] = v
		}
		v, err := value.Nary(op, vs)
		return v, rerr(pos, err)
	}, nil
}

func (c *compiler) yarn(n *ast.YarnLit) (exprFn, error) {
	if len(n.Segs) == 0 {
		v := value.NewYarn("")
		return func(*env) (value.Value, error) { return v, nil }, nil
	}
	if len(n.Segs) == 1 && n.Segs[0].Var == "" {
		v := value.NewYarn(n.Segs[0].Text)
		return func(*env) (value.Value, error) { return v, nil }, nil
	}
	// Interpolated YARN: compile each var segment as a reference.
	type seg struct {
		text string
		read exprFn
	}
	segs := make([]seg, len(n.Segs))
	refs := n.Refs
	for i, s := range n.Segs {
		if s.Var == "" {
			segs[i] = seg{text: s.Text}
			continue
		}
		read, err := c.readVar(refs[0])
		if err != nil {
			return nil, err
		}
		refs = refs[1:]
		segs[i] = seg{read: read}
	}
	return func(e *env) (value.Value, error) {
		var out []byte
		for i := range segs {
			if segs[i].read == nil {
				out = append(out, segs[i].text...)
				continue
			}
			v, err := segs[i].read(e)
			if err != nil {
				return value.NOOB, err
			}
			out = append(out, v.Display()...)
		}
		return value.NewYarn(string(out)), nil
	}, nil
}

// resolve returns the symbol sema bound a reference to.
func (c *compiler) resolve(v *ast.VarRef) (*sema.Symbol, error) {
	if s, ok := v.Sym.(*sema.Symbol); ok {
		return s, nil
	}
	return nil, fmt.Errorf("compile: %s: unresolved variable %s", v.Position, v.Name)
}

// target computes the PE a space-qualified access addresses at runtime.
func target(e *env, sp ast.Space, pos token.Pos) (pe int, remote bool, err error) {
	if sp == ast.SpaceUr {
		t, err := e.predTarget(pos)
		return t, true, err
	}
	return e.pe.ID(), false, nil
}

func (c *compiler) readVar(n *ast.VarRef) (exprFn, error) {
	sym, err := c.resolve(n)
	if err != nil {
		return nil, err
	}
	pos, sp := n.Position, n.Space

	if sym.Kind != sema.SymShared {
		slot := sym.Slot
		return func(e *env) (value.Value, error) { return e.frame[slot], nil }, nil
	}

	heap := sym.Heap
	if sym.IsArray {
		return func(e *env) (value.Value, error) {
			t, _, err := target(e, sp, pos)
			if err != nil {
				return value.NOOB, err
			}
			arr, err := e.pe.GetArray(t, heap)
			if err != nil {
				return value.NOOB, rerr(pos, err)
			}
			return value.NewArray(arr), nil
		}, nil
	}
	if sp != ast.SpaceUr {
		return func(e *env) (value.Value, error) {
			v, err := e.pe.LocalGet(heap)
			return v, rerr(pos, err)
		}, nil
	}
	return func(e *env) (value.Value, error) {
		t, err := e.predTarget(pos)
		if err != nil {
			return value.NOOB, err
		}
		v, err := e.pe.Get(t, heap)
		return v, rerr(pos, err)
	}, nil
}

func (c *compiler) readIndex(n *ast.Index) (exprFn, error) {
	sym, err := c.resolve(n.Arr)
	if err != nil {
		return nil, err
	}
	idx, err := c.expr(n.IndexE)
	if err != nil {
		return nil, err
	}
	pos, sp := n.Position, n.Arr.Space

	if sym.Kind == sema.SymShared {
		heap := sym.Heap
		return func(e *env) (value.Value, error) {
			i, err := evalIndex(e, idx, pos)
			if err != nil {
				return value.NOOB, err
			}
			t, remote, err := target(e, sp, pos)
			if err != nil {
				return value.NOOB, err
			}
			if !remote {
				v, err := e.pe.LocalGetElem(heap, i)
				return v, rerr(pos, err)
			}
			v, err := e.pe.GetElem(t, heap, i)
			return v, rerr(pos, err)
		}, nil
	}

	slot := sym.Slot
	name := n.Arr.Name
	return func(e *env) (value.Value, error) {
		i, err := evalIndex(e, idx, pos)
		if err != nil {
			return value.NOOB, err
		}
		av := e.frame[slot]
		if av.Kind() != value.ArrayK {
			return value.NOOB, rerrf(pos, "%s is not an array", name)
		}
		v, err := av.Array().GetChecked(i)
		return v, rerr(pos, err)
	}, nil
}

func evalIndex(e *env, idx exprFn, pos token.Pos) (int, error) {
	v, err := idx(e)
	if err != nil {
		return 0, err
	}
	i, err := v.ToNumbr()
	if err != nil {
		return 0, rerr(pos, fmt.Errorf("array index: %w", err))
	}
	return int(i), nil
}

// assignTarget compiles the store side of an assignment.
func (c *compiler) assignTarget(targetE ast.Expr) (assignFn, error) {
	switch n := targetE.(type) {
	case *ast.VarRef:
		return c.writeVar(n)
	case *ast.Index:
		return c.writeIndex(n)
	case *ast.Srs:
		return c.srsWrite(n)
	}
	return nil, fmt.Errorf("compile: %s: cannot assign to this expression", targetE.Pos())
}

// readTarget compiles the load side of IS NOW A.
func (c *compiler) readTarget(targetE ast.Expr) (exprFn, error) {
	switch n := targetE.(type) {
	case *ast.VarRef:
		return c.readVar(n)
	case *ast.Index:
		return c.readIndex(n)
	case *ast.Srs:
		return c.srsRead(n)
	}
	return nil, fmt.Errorf("compile: %s: not a readable target", targetE.Pos())
}

func (c *compiler) writeVar(n *ast.VarRef) (assignFn, error) {
	sym, err := c.resolve(n)
	if err != nil {
		return nil, err
	}
	pos, sp, name := n.Position, n.Space, n.Name

	cast := func(v value.Value) (value.Value, error) { return v, nil }
	if sym.Static && !sym.IsArray {
		styp := sym.Type
		cast = func(v value.Value) (value.Value, error) {
			cv, err := value.Cast(v, styp)
			if err != nil {
				return value.NOOB, rerr(pos, fmt.Errorf("assigning to SRSLY %s %s: %w", styp, name, err))
			}
			return cv, nil
		}
	}

	if sym.Kind == sema.SymShared {
		heap := sym.Heap
		if sym.IsArray {
			return func(e *env, v value.Value) error {
				if v.Kind() != value.ArrayK {
					return rerrf(pos, "cannot assign %s to array %s", v.Kind(), name)
				}
				t, _, err := target(e, sp, pos)
				if err != nil {
					return err
				}
				return rerr(pos, e.pe.PutArray(t, heap, v.Array()))
			}, nil
		}
		return func(e *env, v value.Value) error {
			cv, err := cast(v)
			if err != nil {
				return err
			}
			t, _, err := target(e, sp, pos)
			if err != nil {
				return err
			}
			return rerr(pos, e.pe.Put(t, heap, cv))
		}, nil
	}

	slot := sym.Slot
	if sym.IsArray {
		return func(e *env, v value.Value) error {
			cur := e.frame[slot]
			if v.Kind() == value.ArrayK && cur.Kind() == value.ArrayK {
				return rerr(pos, cur.Array().CopyFrom(v.Array()))
			}
			e.frame[slot] = v
			return nil
		}, nil
	}
	return func(e *env, v value.Value) error {
		cv, err := cast(v)
		if err != nil {
			return err
		}
		e.frame[slot] = cv
		return nil
	}, nil
}

func (c *compiler) writeIndex(n *ast.Index) (assignFn, error) {
	sym, err := c.resolve(n.Arr)
	if err != nil {
		return nil, err
	}
	idx, err := c.expr(n.IndexE)
	if err != nil {
		return nil, err
	}
	pos, sp, name := n.Position, n.Arr.Space, n.Arr.Name

	if sym.Kind == sema.SymShared {
		heap := sym.Heap
		return func(e *env, v value.Value) error {
			i, err := evalIndex(e, idx, pos)
			if err != nil {
				return err
			}
			t, remote, err := target(e, sp, pos)
			if err != nil {
				return err
			}
			if !remote {
				return rerr(pos, e.pe.LocalSetElem(heap, i, v))
			}
			return rerr(pos, e.pe.PutElem(t, heap, i, v))
		}, nil
	}

	slot := sym.Slot
	return func(e *env, v value.Value) error {
		i, err := evalIndex(e, idx, pos)
		if err != nil {
			return err
		}
		av := e.frame[slot]
		if av.Kind() != value.ArrayK {
			return rerrf(pos, "%s is not an array", name)
		}
		return rerr(pos, av.Array().Set(i, v))
	}, nil
}

// srsName compiles the name expression of SRS and resolves it at runtime.
func (c *compiler) srsName(n *ast.Srs) (func(*env) (*sema.Symbol, error), error) {
	x, err := c.expr(n.X)
	if err != nil {
		return nil, err
	}
	pos, names := n.Position, n.Names.(*sema.SrsNames)
	return func(e *env) (*sema.Symbol, error) {
		v, err := x(e)
		if err != nil {
			return nil, err
		}
		name, err := v.ToYarn()
		if err != nil {
			return nil, rerr(pos, fmt.Errorf("SRS: %w", err))
		}
		sym, ok := names.Lookup(name)
		if !ok {
			return nil, rerrf(pos, "SRS %q: no such variable", name)
		}
		return sym, nil
	}, nil
}

func (c *compiler) srsRead(n *ast.Srs) (exprFn, error) {
	resolve, err := c.srsName(n)
	if err != nil {
		return nil, err
	}
	pos, sp := n.Position, n.Space
	return func(e *env) (value.Value, error) {
		sym, err := resolve(e)
		if err != nil {
			return value.NOOB, err
		}
		return dynamicRead(e, sym, sp, pos)
	}, nil
}

func (c *compiler) srsWrite(n *ast.Srs) (assignFn, error) {
	resolve, err := c.srsName(n)
	if err != nil {
		return nil, err
	}
	pos, sp := n.Position, n.Space
	return func(e *env, v value.Value) error {
		sym, err := resolve(e)
		if err != nil {
			return err
		}
		return dynamicWrite(e, sym, sp, pos, v)
	}, nil
}

// dynamicRead/dynamicWrite are the uncompiled fallbacks SRS needs, since
// the symbol is only known at runtime.
func dynamicRead(e *env, sym *sema.Symbol, sp ast.Space, pos token.Pos) (value.Value, error) {
	if sym.Kind != sema.SymShared {
		return e.frame[sym.Slot], nil
	}
	t, remote, err := target(e, sp, pos)
	if err != nil {
		return value.NOOB, err
	}
	if sym.IsArray {
		arr, err := e.pe.GetArray(t, sym.Heap)
		if err != nil {
			return value.NOOB, rerr(pos, err)
		}
		return value.NewArray(arr), nil
	}
	if !remote {
		v, err := e.pe.LocalGet(sym.Heap)
		return v, rerr(pos, err)
	}
	v, err := e.pe.Get(t, sym.Heap)
	return v, rerr(pos, err)
}

func dynamicWrite(e *env, sym *sema.Symbol, sp ast.Space, pos token.Pos, v value.Value) error {
	if sym.Static && !sym.IsArray {
		cv, err := value.Cast(v, sym.Type)
		if err != nil {
			return rerr(pos, fmt.Errorf("assigning to SRSLY %s %s: %w", sym.Type, sym.Name, err))
		}
		v = cv
	}
	if sym.Kind != sema.SymShared {
		if sym.IsArray && v.Kind() == value.ArrayK {
			// Private whole-array assignment copies contents (value semantics).
			if cur := e.frame[sym.Slot]; cur.Kind() == value.ArrayK {
				return rerr(pos, cur.Array().CopyFrom(v.Array()))
			}
		}
		e.frame[sym.Slot] = v
		return nil
	}
	t, _, err := target(e, sp, pos)
	if err != nil {
		return err
	}
	if sym.IsArray {
		if v.Kind() != value.ArrayK {
			return rerrf(pos, "cannot assign %s to array %s", v.Kind(), sym.Name)
		}
		return rerr(pos, e.pe.PutArray(t, sym.Heap, v.Array()))
	}
	return rerr(pos, e.pe.Put(t, sym.Heap, v))
}

// call compiles I IZ name YR … MKAY.
func (c *compiler) call(n *ast.Call) (exprFn, error) {
	args := make([]exprFn, len(n.Args))
	for i, a := range n.Args {
		fn, err := c.expr(a)
		if err != nil {
			return nil, err
		}
		args[i] = fn
	}
	name, pos := n.Name, n.Position
	return func(e *env) (value.Value, error) {
		cf, ok := e.prog.funcs[name]
		if !ok {
			return value.NOOB, rerrf(pos, "I IZ %s: no such function", name)
		}
		if e.callDepth >= maxCallDepth {
			return value.NOOB, rerrf(pos, "I IZ %s: call depth exceeds %d (runaway recursion?)", name, maxCallDepth)
		}
		vals := make([]value.Value, len(args))
		for i, fn := range args {
			v, err := fn(e)
			if err != nil {
				return value.NOOB, err
			}
			vals[i] = v
		}
		savedFrame := e.frame
		e.frame = make([]value.Value, cf.nSlots)
		e.callDepth++
		for i := range vals {
			e.frame[i+1] = vals[i] // slot 0 is IT
		}
		ctl, err := runStmts(e, cf.body)
		ret := value.NOOB
		switch {
		case err != nil:
		case ctl == ctrlReturn:
			ret = e.retval
		case ctl == ctrlBreak:
			ret = value.NOOB
		default:
			ret = e.frame[0]
		}
		e.callDepth--
		e.frame = savedFrame
		return ret, err
	}, nil
}

// peExpr compiles a TXT MAH BFF target expression with range validation.
func (c *compiler) peExpr(e ast.Expr) (func(*env) (int, error), error) {
	fn, err := c.expr(e)
	if err != nil {
		return nil, err
	}
	pos := e.Pos()
	return func(en *env) (int, error) {
		v, err := fn(en)
		if err != nil {
			return 0, err
		}
		t, err := v.ToNumbr()
		if err != nil {
			return 0, rerr(pos, fmt.Errorf("TXT MAH BFF target: %w", err))
		}
		if t < 0 || t >= int64(en.pe.NPEs()) {
			return 0, rerrf(pos, "TXT MAH BFF %d: no such friend (MAH FRENZ is %d)", t, en.pe.NPEs())
		}
		return int(t), nil
	}, nil
}
