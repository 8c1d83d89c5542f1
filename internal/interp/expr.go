package interp

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/token"
	"repro/internal/value"
)

// symbolFor resolves a VarRef through the symbol sema attached to the node
// during slot resolution — a pointer load, not a map lookup; this is the
// variable-access hot path. SRS resolves its name at runtime and builds
// its reference with the symbol attached.
func (ev *evaluator) symbolFor(v *ast.VarRef) *sema.Symbol {
	s, _ := v.Sym.(*sema.Symbol)
	return s
}

// space resolves which PE a reference addresses: the local PE for
// unqualified and MAH references, the predication target for UR.
func (ev *evaluator) space(pos token.Pos, sp ast.Space) (pe int, remote bool, err error) {
	if sp == ast.SpaceUr {
		t, err := ev.predTarget(pos)
		return t, true, err
	}
	return ev.pe.ID(), false, nil
}

// readVar reads a variable reference.
func (ev *evaluator) readVar(v *ast.VarRef) (value.Value, error) {
	sym := ev.symbolFor(v)
	if sym == nil {
		return value.NOOB, rerrf(v.Position, "variable %s has not been declared", v.Name)
	}
	if sym.Kind == sema.SymShared {
		target, remote, err := ev.space(v.Position, v.Space)
		if err != nil {
			return value.NOOB, err
		}
		if sym.IsArray {
			// Whole-array read: a deep copy, as on real one-sided hardware.
			arr, err := ev.pe.GetArray(target, sym.Heap)
			if err != nil {
				return value.NOOB, rerr(v.Position, err)
			}
			return value.NewArray(arr), nil
		}
		if !remote {
			val, err := ev.pe.LocalGet(sym.Heap)
			return val, rerr(v.Position, err)
		}
		val, err := ev.pe.Get(target, sym.Heap)
		return val, rerr(v.Position, err)
	}
	return ev.frame.slots[sym.Slot], nil
}

// writeVar assigns to a variable reference, applying static-type casts.
func (ev *evaluator) writeVar(v *ast.VarRef, val value.Value) error {
	sym := ev.symbolFor(v)
	if sym == nil {
		return rerrf(v.Position, "variable %s has not been declared", v.Name)
	}
	if sym.Static && !sym.IsArray {
		cv, err := value.Cast(val, sym.Type)
		if err != nil {
			return rerr(v.Position, fmt.Errorf("assigning to SRSLY %s %s: %w", sym.Type, v.Name, err))
		}
		val = cv
	}
	if sym.Kind == sema.SymShared {
		target, _, err := ev.space(v.Position, v.Space)
		if err != nil {
			return err
		}
		if sym.IsArray {
			if val.Kind() != value.ArrayK {
				return rerrf(v.Position, "cannot assign %s to array %s", val.Kind(), v.Name)
			}
			return rerr(v.Position, ev.pe.PutArray(target, sym.Heap, val.Array()))
		}
		return rerr(v.Position, ev.pe.Put(target, sym.Heap, val))
	}
	if sym.IsArray && val.Kind() == value.ArrayK {
		// Private whole-array assignment copies contents (value semantics).
		cur := ev.frame.slots[sym.Slot]
		if cur.Kind() == value.ArrayK {
			return rerr(v.Position, cur.Array().CopyFrom(val.Array()))
		}
	}
	ev.frame.slots[sym.Slot] = val
	return nil
}

// index evaluates an array index expression to an int.
func (ev *evaluator) index(n *ast.Index) (int, error) {
	iv, err := ev.eval(n.IndexE)
	if err != nil {
		return 0, err
	}
	i, err := iv.ToNumbr()
	if err != nil {
		return 0, rerr(n.Position, fmt.Errorf("array index: %w", err))
	}
	return int(i), nil
}

// readIndex reads arr'Z i.
func (ev *evaluator) readIndex(n *ast.Index) (value.Value, error) {
	sym := ev.symbolFor(n.Arr)
	if sym == nil {
		return value.NOOB, rerrf(n.Position, "variable %s has not been declared", n.Arr.Name)
	}
	i, err := ev.index(n)
	if err != nil {
		return value.NOOB, err
	}
	if sym.Kind == sema.SymShared {
		target, remote, err := ev.space(n.Position, n.Arr.Space)
		if err != nil {
			return value.NOOB, err
		}
		if !remote {
			v, err := ev.pe.LocalGetElem(sym.Heap, i)
			return v, rerr(n.Position, err)
		}
		v, err := ev.pe.GetElem(target, sym.Heap, i)
		return v, rerr(n.Position, err)
	}
	slotv := ev.frame.slots[sym.Slot]
	if slotv.Kind() != value.ArrayK {
		return value.NOOB, rerrf(n.Position, "%s is not an array", n.Arr.Name)
	}
	v, err := slotv.Array().GetChecked(i)
	return v, rerr(n.Position, err)
}

// writeIndex assigns arr'Z i R val.
func (ev *evaluator) writeIndex(n *ast.Index, val value.Value) error {
	sym := ev.symbolFor(n.Arr)
	if sym == nil {
		return rerrf(n.Position, "variable %s has not been declared", n.Arr.Name)
	}
	i, err := ev.index(n)
	if err != nil {
		return err
	}
	if sym.Kind == sema.SymShared {
		target, remote, err := ev.space(n.Position, n.Arr.Space)
		if err != nil {
			return err
		}
		if !remote {
			return rerr(n.Position, ev.pe.LocalSetElem(sym.Heap, i, val))
		}
		return rerr(n.Position, ev.pe.PutElem(target, sym.Heap, i, val))
	}
	slotv := ev.frame.slots[sym.Slot]
	if slotv.Kind() != value.ArrayK {
		return rerrf(n.Position, "%s is not an array", n.Arr.Name)
	}
	return rerr(n.Position, slotv.Array().Set(i, val))
}

// assign stores val into an assignment target.
func (ev *evaluator) assign(target ast.Expr, val value.Value) error {
	switch t := target.(type) {
	case *ast.VarRef:
		return ev.writeVar(t, val)
	case *ast.Index:
		return ev.writeIndex(t, val)
	case *ast.Srs:
		ref, err := ev.srsRef(t)
		if err != nil {
			return err
		}
		return ev.writeVar(ref, val)
	}
	return rerrf(target.Pos(), "cannot assign to this expression")
}

// readTarget reads the current value of an assignment target (IS NOW A).
func (ev *evaluator) readTarget(target ast.Expr) (value.Value, error) {
	switch t := target.(type) {
	case *ast.VarRef:
		return ev.readVar(t)
	case *ast.Index:
		return ev.readIndex(t)
	case *ast.Srs:
		ref, err := ev.srsRef(t)
		if err != nil {
			return value.NOOB, err
		}
		return ev.readVar(ref)
	}
	return value.NOOB, rerrf(target.Pos(), "not a readable target")
}

// srsRef resolves SRS <expr> to a synthetic VarRef.
func (ev *evaluator) srsRef(n *ast.Srs) (*ast.VarRef, error) {
	v, err := ev.eval(n.X)
	if err != nil {
		return nil, err
	}
	name, err := v.ToYarn()
	if err != nil {
		return nil, rerr(n.Position, fmt.Errorf("SRS: %w", err))
	}
	sym, ok := n.Names.(*sema.SrsNames).Lookup(name)
	if !ok {
		return nil, rerrf(n.Position, "SRS %q: no such variable", name)
	}
	return &ast.VarRef{Position: n.Position, Name: name, Space: n.Space, Sym: sym}, nil
}

// evalPE evaluates an expression to a PE rank and validates the range.
func (ev *evaluator) evalPE(e ast.Expr) (int, error) {
	v, err := ev.eval(e)
	if err != nil {
		return 0, err
	}
	n, err := v.ToNumbr()
	if err != nil {
		return 0, rerr(e.Pos(), fmt.Errorf("TXT MAH BFF target: %w", err))
	}
	if n < 0 || n >= int64(ev.pe.NPEs()) {
		return 0, rerrf(e.Pos(), "TXT MAH BFF %d: no such friend (MAH FRENZ is %d)", n, ev.pe.NPEs())
	}
	return int(n), nil
}

// eval evaluates an expression.
func (ev *evaluator) eval(e ast.Expr) (value.Value, error) {
	switch n := e.(type) {
	case *ast.NumbrLit:
		return value.NewNumbr(n.Value), nil
	case *ast.NumbarLit:
		return value.NewNumbar(n.Value), nil
	case *ast.TroofLit:
		return value.NewTroof(n.Value), nil
	case *ast.NoobLit:
		return value.NOOB, nil
	case *ast.YarnLit:
		return ev.evalYarn(n)
	case *ast.VarRef:
		return ev.readVar(n)
	case *ast.Index:
		return ev.readIndex(n)
	case *ast.BinExpr:
		return ev.evalBin(n)
	case *ast.UnExpr:
		x, err := ev.eval(n.X)
		if err != nil {
			return value.NOOB, err
		}
		v, err := value.Unary(n.Op, x)
		return v, rerr(n.Position, err)
	case *ast.NaryExpr:
		return ev.evalNary(n)
	case *ast.CastExpr:
		x, err := ev.eval(n.X)
		if err != nil {
			return value.NOOB, err
		}
		v, err := value.Cast(x, n.Type)
		return v, rerr(n.Position, err)
	case *ast.Call:
		return ev.call(n)
	case *ast.Srs:
		ref, err := ev.srsRef(n)
		if err != nil {
			return value.NOOB, err
		}
		return ev.readVar(ref)
	case *ast.Me:
		return value.NewNumbr(int64(ev.pe.ID())), nil
	case *ast.MahFrenz:
		return value.NewNumbr(int64(ev.pe.NPEs())), nil
	case *ast.Whatevr:
		// rand()-shaped: a non-negative 31-bit integer.
		return value.NewNumbr(ev.pe.Rand().Int63n(1 << 31)), nil
	case *ast.Whatevar:
		return value.NewNumbar(ev.pe.Rand().Float64()), nil
	}
	return value.NOOB, rerrf(e.Pos(), "interp: unhandled expression %T", e)
}

func (ev *evaluator) evalBin(n *ast.BinExpr) (value.Value, error) {
	// BOTH OF / EITHER OF short-circuit, as the specification permits.
	switch n.Op {
	case value.OpBothOf:
		x, err := ev.eval(n.X)
		if err != nil {
			return value.NOOB, err
		}
		if !x.ToTroof() {
			return value.NewTroof(false), nil
		}
		y, err := ev.eval(n.Y)
		if err != nil {
			return value.NOOB, err
		}
		return value.NewTroof(y.ToTroof()), nil
	case value.OpEitherOf:
		x, err := ev.eval(n.X)
		if err != nil {
			return value.NOOB, err
		}
		if x.ToTroof() {
			return value.NewTroof(true), nil
		}
		y, err := ev.eval(n.Y)
		if err != nil {
			return value.NOOB, err
		}
		return value.NewTroof(y.ToTroof()), nil
	}
	x, err := ev.eval(n.X)
	if err != nil {
		return value.NOOB, err
	}
	y, err := ev.eval(n.Y)
	if err != nil {
		return value.NOOB, err
	}
	v, err := value.Binary(n.Op, x, y)
	return v, rerr(n.Position, err)
}

func (ev *evaluator) evalNary(n *ast.NaryExpr) (value.Value, error) {
	switch n.Op {
	case value.OpAllOf:
		for _, o := range n.Operands {
			v, err := ev.eval(o)
			if err != nil {
				return value.NOOB, err
			}
			if !v.ToTroof() {
				return value.NewTroof(false), nil
			}
		}
		return value.NewTroof(true), nil
	case value.OpAnyOf:
		for _, o := range n.Operands {
			v, err := ev.eval(o)
			if err != nil {
				return value.NOOB, err
			}
			if v.ToTroof() {
				return value.NewTroof(true), nil
			}
		}
		return value.NewTroof(false), nil
	default: // SMOOSH
		vs := make([]value.Value, len(n.Operands))
		for i, o := range n.Operands {
			v, err := ev.eval(o)
			if err != nil {
				return value.NOOB, err
			}
			vs[i] = v
		}
		v, err := value.Nary(n.Op, vs)
		return v, rerr(n.Position, err)
	}
}

// evalYarn assembles a YARN literal, reading each :{var} interpolation
// through the reference sema bound.
func (ev *evaluator) evalYarn(n *ast.YarnLit) (value.Value, error) {
	if len(n.Segs) == 1 && n.Segs[0].Var == "" {
		return value.NewYarn(n.Segs[0].Text), nil
	}
	var out []byte
	refs := n.Refs
	for _, seg := range n.Segs {
		if seg.Var == "" {
			out = append(out, seg.Text...)
			continue
		}
		v, err := ev.readVar(refs[0])
		if err != nil {
			return value.NOOB, err
		}
		refs = refs[1:]
		out = append(out, v.Display()...)
	}
	return value.NewYarn(string(out)), nil
}
