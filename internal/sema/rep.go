package sema

import (
	"repro/internal/ast"
	"repro/internal/value"
)

// Rep is how a compiled engine may hold a scalar symbol.
type Rep int

const (
	RepBoxed Rep = iota // a value.Value of any kind (the default)
	RepInt              // a raw int64: a NUMBR wherever it is read
	RepFloat            // a raw float64: a NUMBAR wherever it is read
)

// inferReps sets Rep on every frame symbol under the rules in the package
// doc, once the checker has resolved every frame. A reference resolves
// only in its own frame, so each frame is solved alone, from the uses the
// checker recorded as it walked the frame.
func (info *Info) inferReps() {
	info.inferFrame(info.Main)
	for _, fi := range info.Funcs {
		info.inferFrame(fi.Scope)
	}
}

// inferFrame solves one frame. Privates without SRSLY go through an
// optimistic fixpoint: each starts at the kind its declaration yields,
// and is demoted to boxed when a store could give it another kind, until
// nothing changes. The stores that qualify are R with exactly that
// static kind, under the current reps (only SRSLY stores cast, so there
// is no promotion), and a loop header counting a NUMBR. Demotion only
// makes more expressions dynamic, so the pass ends.
func (info *Info) inferFrame(scope *Scope) {
	u := scope.uses
	scope.uses = nil
	scope.Srs, scope.Nodes = u.srs, u.nodes
	// Declaration order: an Init reads only symbols declared before it,
	// so their optimistic reps are already in place.
	for _, sym := range scope.Order {
		use := &u.syms[sym.Slot]
		if sym.IsArray {
			sym.TypedElems = isNumeric(sym.Type) && (sym.Kind == SymShared ||
				!use.undominated && !use.killed && len(use.assigns) == 0 && !u.srsWrite)
			continue
		}
		if use.undominated {
			continue
		}
		switch {
		case sym.Kind == SymLoopVar && len(use.assigns) == 0 && !use.killed && !u.srs:
			// Implicit counters are NUMBR by construction; a body that
			// assigns to one could store any kind, so only never-assigned
			// counters unbox. SRS can read and write a counter inside its
			// loop, so a frame with SRS keeps them boxed.
			sym.Rep = RepInt
		case sym.Kind == SymPrivate && sym.Static:
			sym.Rep = repFor(sym.Type, use.counter)
		case sym.Kind == SymPrivate && !use.killed && !u.srsWrite:
			if k, ok := info.declKind(sym.Decl); ok {
				sym.Rep = repFor(k, use.counter)
				use.inferred = true
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for _, sym := range scope.Order {
			use := &u.syms[sym.Slot]
			if !use.inferred || sym.Rep == RepBoxed {
				continue
			}
			k, ok := info.declKind(sym.Decl)
			keep := ok && (k == value.Numbar) == (sym.Rep == RepFloat)
			for _, rhs := range use.assigns {
				rk, ok := info.StaticKind(rhs)
				keep = keep && ok && rk == k
			}
			if !keep {
				sym.Rep = RepBoxed
				changed = true
			}
		}
	}
}

// repFor is the Rep of a private whose every store has kind k. A loop
// header stores a NUMBR into its counter, so a counted NUMBAR stays
// boxed.
func repFor(k value.Kind, counted bool) Rep {
	switch {
	case k == value.Numbr:
		return RepInt
	case k == value.Numbar && !counted:
		return RepFloat
	}
	return RepBoxed
}

// declKind is the numeric kind a private's declaration gives it without
// SRSLY: its Init's static kind, or the typed zero when there is none.
func (info *Info) declKind(d *ast.Decl) (value.Kind, bool) {
	if d.Init != nil {
		return info.StaticKind(d.Init)
	}
	if d.Typed && isNumeric(d.Type) {
		return d.Type, true
	}
	return 0, false
}

func isNumeric(k value.Kind) bool { return k == value.Numbr || k == value.Numbar }

// symOf is the symbol the checker resolved v to, or nil.
func symOf(v *ast.VarRef) *Symbol {
	sym, _ := v.Sym.(*Symbol)
	return sym
}

// frameUses is what inferFrame needs to know about how one frame uses
// its symbols. The checker records it as it walks the frame.
//
// A private's Decl dominates a reference when the reference lies after
// the Decl in the statement list holding the Decl, so every path to the
// reference ran the Decl first. The checker keeps each private a list
// declares live for the rest of that list. Anything else, such as a read
// after the OIC of the O RLY? that declared it or after a loop that may
// run no times, is undominated. (LOLCODE scoping is function-flat, so
// the checker resolves such reads.)
type frameUses struct {
	syms     []symUse // by slot
	srs      bool     // the frame has an SRS
	srsWrite bool     // the frame has an SRS target
	nodes    int      // the AST nodes walked
}

type symUse struct {
	live        bool // a private whose Decl dominates this point
	undominated bool // a private referenced where its Decl may not have run
	killed      bool // a GIMMEH or IS NOW A target
	counter     bool // counted by a loop header
	inferred    bool // a private without SRSLY in the fixpoint
	assigns     []ast.Expr
}

// setLive marks the private a Decl statement declares live or not. A
// Decl the checker rejected may carry no symbol, or one from an earlier
// check of the tree; the check fails, so it is skipped or harmless.
func (u *frameUses) setLive(s ast.Stmt, live bool) {
	if d, ok := s.(*ast.Decl); ok {
		if sym, ok := d.Sym.(*Symbol); ok && sym.Slot < len(u.syms) {
			u.syms[sym.Slot].live = live
		}
	}
}

func (u *frameUses) ref(sym *Symbol) {
	if sym.Kind == SymPrivate && !u.syms[sym.Slot].live {
		u.syms[sym.Slot].undominated = true
	}
}

// StaticKind reports the kind e is guaranteed to evaluate to, when that
// kind is NUMBR or NUMBAR. It reads each symbol's Rep, a TypedElems
// array's element type and a shared SRSLY scalar's declared type (every
// store casts, so a converting read yields it).
// Engines lower an expression it accepts to raw int64 or float64 code.
func (info *Info) StaticKind(e ast.Expr) (value.Kind, bool) {
	switch n := e.(type) {
	case *ast.NumbrLit, *ast.Me, *ast.MahFrenz, *ast.Whatevr:
		return value.Numbr, true
	case *ast.NumbarLit, *ast.Whatevar:
		return value.Numbar, true
	case *ast.VarRef:
		sym := symOf(n)
		switch {
		case sym == nil:
		case sym.Rep == RepInt:
			return value.Numbr, true
		case sym.Rep == RepFloat:
			return value.Numbar, true
		case sym.Kind == SymShared && sym.Static && !sym.IsArray && isNumeric(sym.Type):
			return sym.Type, true
		}
		return 0, false
	case *ast.Index:
		if sym := symOf(n.Arr); sym != nil && sym.TypedElems {
			return sym.Type, true
		}
		return 0, false
	case *ast.BinExpr:
		switch n.Op {
		case value.OpSum, value.OpDiff, value.OpProdukt, value.OpQuoshunt,
			value.OpMod, value.OpBiggrOf, value.OpSmallrOf:
			xk, xok := info.StaticKind(n.X)
			yk, yok := info.StaticKind(n.Y)
			if !xok || !yok {
				return 0, false
			}
			if xk == value.Numbar || yk == value.Numbar {
				return value.Numbar, true
			}
			return value.Numbr, true
		}
		return 0, false
	case *ast.UnExpr:
		switch n.Op {
		case value.OpSquar:
			return info.StaticKind(n.X)
		case value.OpUnsquar, value.OpFlip:
			if _, ok := info.StaticKind(n.X); ok {
				return value.Numbar, true
			}
		}
		return 0, false
	case *ast.CastExpr:
		// A numeric MAEK always lands on its target kind, whatever the
		// operand's kind.
		if isNumeric(n.Type) {
			return n.Type, true
		}
	}
	return 0, false
}
