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
// Correctness containment mirrors the compile backend's: a symbol may
// live as a raw Go scalar only when every write provably preserves its
// kind and its declaration runs before every read (see computeReps) —
// SRSLY-typed scalars are cast on every store (see storeVar), loop
// counters qualify only when the body never assigns to them, and other
// privates only when every store has their kind. Shared NUMBR and
// NUMBAR elements read through the typed gets (pe.GetNumbar and
// friends) straight into raw code. Typed fast paths for operators with
// failure modes (QUOSHUNT, MOD, FLIP OF, UNSQUAR OF) call the value.Raw*
// helpers so error text stays single-sourced with the dynamic backends.

// rep is the Go-level representation of a private scalar symbol.
type rep int

const (
	repValue rep = iota // boxed value.Value (the default)
	repInt              // raw int64: SRSLY NUMBR, pristine loop counters, inferred NUMBR
	repFloat            // raw float64: SRSLY NUMBAR, inferred NUMBAR
)

// goType returns the Go declaration type for a symbol.
func (g *gen) goType(sym *sema.Symbol) string {
	switch g.reps[sym] {
	case repInt:
		return "int64"
	case repFloat:
		return "float64"
	}
	return "value.Value"
}

// computeReps decides which private scalars live unboxed. Shared symbols
// always live in the symmetric heap as value.Value; IT and parameters
// stay boxed because any kind flows into them. A private needs its Decl
// to dominate every reference (see scanUses), since a boxed variable
// whose Decl never ran reads as NOOB and a raw one would read as 0.
//
// Privates without SRSLY are inferred by an optimistic fixpoint: each
// starts at the kind its declaration yields, and is demoted to boxed
// when a store could give it another kind, until nothing changes. The
// stores that qualify are R with exactly that static kind, under the
// current reps (only SRSLY stores cast, so there is no promotion), and
// a loop header counting a NUMBR. A GIMMEH or IS NOW A target stays
// boxed. Demotion only makes more expressions dynamic, so the pass ends.
func computeReps(info *sema.Info) map[*sema.Symbol]rep {
	u := scanUses(info)
	g := &gen{info: info, reps: make(map[*sema.Symbol]rep)}
	var inferred []*sema.Symbol
	add := func(sym *sema.Symbol, k value.Kind) {
		switch {
		case k == value.Numbr:
			g.reps[sym] = repInt
		case k == value.Numbar && !u.counter[sym]:
			g.reps[sym] = repFloat
		}
	}
	collect := func(scope *sema.Scope) {
		// Declaration order: an Init reads only symbols declared before
		// it, so their optimistic reps are already in place.
		for _, sym := range scope.Order {
			if sym.IsArray || u.undominated[sym] {
				continue
			}
			switch {
			case sym.Kind == sema.SymLoopVar && len(u.assigns[sym]) == 0 && !u.killed[sym]:
				// Implicit counters are NUMBR by construction; a body
				// that assigns to one could store any kind, so only
				// never-assigned counters unbox.
				g.reps[sym] = repInt
			case sym.Kind == sema.SymPrivate && sym.Static:
				add(sym, sym.Type)
			case sym.Kind == sema.SymPrivate && !u.killed[sym]:
				if k, ok := g.declKind(sym.Decl); ok {
					add(sym, k)
					inferred = append(inferred, sym)
				}
			}
		}
	}
	collect(info.Main)
	for _, fi := range info.Funcs {
		collect(fi.Scope)
	}

	for changed := true; changed; {
		changed = false
		for _, sym := range inferred {
			r, ok := g.reps[sym]
			if !ok {
				continue
			}
			k, ok := g.declKind(sym.Decl)
			keep := ok && (k == value.Numbar) == (r == repFloat)
			for _, rhs := range u.assigns[sym] {
				rk, ok := g.staticNumKind(rhs)
				keep = keep && ok && rk == k
			}
			if !keep {
				delete(g.reps, sym)
				changed = true
			}
		}
	}
	return g.reps
}

// declKind is the numeric kind a private's declaration gives it without
// SRSLY: its Init's static kind, or the typed zero when there is none.
func (g *gen) declKind(d *ast.Decl) (value.Kind, bool) {
	if d.Init != nil {
		return g.staticNumKind(d.Init)
	}
	if d.Typed && (d.Type == value.Numbr || d.Type == value.Numbar) {
		return d.Type, true
	}
	return 0, false
}

// uses is what computeReps needs to know about how each symbol is used.
type uses struct {
	info  *sema.Info
	scope *sema.Scope
	live  map[*sema.Symbol]bool // privates whose Decl dominates this point

	undominated map[*sema.Symbol]bool // a private referenced where its Decl may not have run
	assigns     map[*sema.Symbol][]ast.Expr
	killed      map[*sema.Symbol]bool // a GIMMEH or IS NOW A target
	counter     map[*sema.Symbol]bool // counted by a loop header
}

// scanUses walks every frame. A private's Decl dominates a reference
// when the reference lies after the Decl in the statement list holding
// the Decl, so every path to the reference ran the Decl first. Anything
// else, such as a read after the OIC of the O RLY? that declared it or
// after a loop that may run no times, is undominated. (LOLCODE scoping
// is function-flat, so sema resolves such reads.)
func scanUses(info *sema.Info) *uses {
	u := &uses{
		info:        info,
		live:        make(map[*sema.Symbol]bool),
		undominated: make(map[*sema.Symbol]bool),
		assigns:     make(map[*sema.Symbol][]ast.Expr),
		killed:      make(map[*sema.Symbol]bool),
		counter:     make(map[*sema.Symbol]bool),
	}
	u.scope = info.Main
	u.stmts(info.Prog.Body)
	for _, fi := range info.Funcs {
		u.scope = fi.Scope
		u.stmts(fi.Decl.Body)
	}
	return u
}

// stmts scans one statement list, keeping each private it declares live
// for the rest of the list.
func (u *uses) stmts(ss []ast.Stmt) {
	var declared []*sema.Symbol
	for _, s := range ss {
		ast.Walk(s, u.visit)
		if d, ok := s.(*ast.Decl); ok {
			sym := u.info.Refs[d]
			u.live[sym] = true
			declared = append(declared, sym)
		}
	}
	for _, sym := range declared {
		delete(u.live, sym)
	}
}

func (u *uses) ref(sym *sema.Symbol) {
	if sym != nil && sym.Kind == sema.SymPrivate && !u.live[sym] {
		u.undominated[sym] = true
	}
}

// target resolves an assignment target to the symbol it names, or nil.
func (u *uses) target(e ast.Expr) *sema.Symbol {
	if v, ok := e.(*ast.VarRef); ok {
		return u.info.Refs[v]
	}
	return nil
}

// visit records one node's uses for ast.Walk, and scans the statement
// lists below it itself so each is its own dominance region.
func (u *uses) visit(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.VarRef:
		u.ref(u.info.Refs[x])
	case *ast.YarnLit:
		// :{var} resolves by name in the frame, as readVar does.
		for _, seg := range x.Segs {
			if seg.Var != "" {
				u.ref(u.scope.Names[seg.Var])
			}
		}
	case *ast.Assign:
		if sym := u.target(x.Target); sym != nil {
			u.assigns[sym] = append(u.assigns[sym], x.Value)
		}
	case *ast.Gimmeh:
		if sym := u.target(x.Target); sym != nil {
			u.killed[sym] = true
		}
	case *ast.CastStmt:
		if sym := u.target(x.Target); sym != nil {
			u.killed[sym] = true
		}
	case *ast.If:
		u.stmts(x.Then)
		for _, m := range x.Mebbes {
			ast.Walk(m.Cond, u.visit)
			u.stmts(m.Body)
		}
		u.stmts(x.Else)
		return false
	case *ast.Switch:
		for _, c := range x.Cases {
			ast.Walk(c.Lit, u.visit)
			u.stmts(c.Body)
		}
		u.stmts(x.Default)
		return false
	case *ast.Loop:
		if sym := u.info.Refs[x]; sym != nil {
			u.ref(sym)
			u.counter[sym] = true
		}
		ast.Walk(x.Cond, u.visit)
		u.stmts(x.Body)
		return false
	case *ast.TxtStmt:
		ast.Walk(x.Target, u.visit)
		u.stmts([]ast.Stmt{x.Stmt})
		return false
	case *ast.TxtBlock:
		ast.Walk(x.Target, u.visit)
		u.stmts(x.Body)
		return false
	}
	return true
}

// staticNumKind reports the numeric kind e is guaranteed to evaluate to,
// without emitting anything. It must stay in lockstep with emitRaw: every
// (kind, true) answer here is a promise emitRaw can keep. The analysis is
// pure so callers can probe before committing — a half-emitted fast path
// that falls back would duplicate side effects like WHATEVR draws.
func (g *gen) staticNumKind(e ast.Expr) (value.Kind, bool) {
	switch n := e.(type) {
	case *ast.NumbrLit:
		return value.Numbr, true
	case *ast.NumbarLit:
		return value.Numbar, true
	case *ast.Me, *ast.MahFrenz, *ast.Whatevr:
		return value.Numbr, true
	case *ast.Whatevar:
		return value.Numbar, true
	case *ast.VarRef:
		sym, err := g.symFor(n)
		if err != nil {
			return 0, false
		}
		switch g.reps[sym] {
		case repInt:
			return value.Numbr, true
		case repFloat:
			return value.Numbar, true
		}
		return 0, false
	case *ast.Index:
		// Typed arrays cast on every Set (value.Array.Set, shmem element
		// stores), so elements are guaranteed their declared kind.
		sym, err := g.symFor(n.Arr)
		if err != nil || !sym.IsArray {
			return 0, false
		}
		if sym.Type == value.Numbr || sym.Type == value.Numbar {
			return sym.Type, true
		}
		return 0, false
	case *ast.BinExpr:
		switch n.Op {
		case value.OpSum, value.OpDiff, value.OpProdukt, value.OpQuoshunt,
			value.OpMod, value.OpBiggrOf, value.OpSmallrOf:
			xk, xok := g.staticNumKind(n.X)
			yk, yok := g.staticNumKind(n.Y)
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
			return g.staticNumKind(n.X)
		case value.OpUnsquar, value.OpFlip:
			if _, ok := g.staticNumKind(n.X); ok {
				return value.Numbar, true
			}
			return 0, false
		}
		return 0, false
	case *ast.CastExpr:
		// A numeric MAEK always lands on its target kind; the operand may
		// be dynamic (emitRaw boxes it and casts, then unwraps).
		if n.Type == value.Numbr || n.Type == value.Numbar {
			return n.Type, true
		}
		return 0, false
	}
	return 0, false
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
			_, xok := g.staticNumKind(n.X)
			_, yok := g.staticNumKind(n.Y)
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

// emitRaw lowers an expression staticNumKind accepted to raw Go code of
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
		if g.reps[sym] == repFloat {
			return goName(sym), value.Numbar, nil
		}
		return goName(sym), value.Numbr, nil
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
		if ik, ok := g.staticNumKind(n.X); ok {
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
	if k, isNum := g.staticNumKind(e); isNum {
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
	want := value.Numbr
	if g.reps[sym] == repFloat {
		want = value.Numbar
	}
	if k, ok := g.staticNumKind(rhs); ok {
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
