package vm

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/value"
)

// Options tune compilation. The zero value is the production
// configuration.
type Options struct {
	// DisableFusion skips the superinstruction peephole pass (fuse.go),
	// leaving the compiler's raw instruction stream. Used by the budget
	// invariant and differential tests to compare fused vs. unfused
	// execution; production callers should never need it.
	DisableFusion bool
}

// Compile lowers a checked program to bytecode: one chunk for the main
// program and one per HOW IZ I function. All symbol resolution uses the
// slot addresses sema attached to the AST, so the emitted code addresses
// variables by frame slot and symmetric-heap index only — the only
// name-keyed lookups left are the ones the language makes dynamic (SRS).
// After each chunk is sealed, the superinstruction pass (fuse.go) rewrites
// the hot fixed shapes into fused opcodes.
func Compile(info *sema.Info) (*Program, error) {
	return CompileOpts(info, Options{})
}

// CompileOpts is Compile with explicit Options.
func CompileOpts(info *sema.Info, opts Options) (*Program, error) {
	p := &Program{
		info:    info,
		funcIdx: make(map[string]int, len(info.Funcs)),
	}
	// Indices first, bodies second, so recursive and forward calls resolve.
	for _, fd := range info.Prog.Funcs {
		fi := info.Funcs[fd.Name]
		if fi == nil || fi.Decl != fd {
			continue
		}
		p.funcIdx[fd.Name] = len(p.Funcs)
		p.Funcs = append(p.Funcs, &Chunk{
			Name:   fd.Name,
			NSlots: len(fi.Scope.Order),
			Params: len(fd.Params),
			Scope:  fi.Scope,
		})
	}
	for _, fd := range info.Prog.Funcs {
		fi := info.Funcs[fd.Name]
		if fi == nil || fi.Decl != fd {
			continue
		}
		c := &compiler{info: info, prog: p, chunk: p.Funcs[p.funcIdx[fd.Name]], scope: fi.Scope, inFunc: true}
		if err := c.stmts(fd.Body); err != nil {
			return nil, err
		}
		c.emit(Instr{Op: OpReturnIT, Pos: fd.Position})
		c.sealConsts()
		if !opts.DisableFusion {
			fuseChunk(c.chunk)
		}
	}
	p.Main = &Chunk{Name: "main", NSlots: len(info.Main.Order), Scope: info.Main}
	c := &compiler{info: info, prog: p, chunk: p.Main, scope: info.Main}
	if err := c.stmts(info.Prog.Body); err != nil {
		return nil, err
	}
	c.emit(Instr{Op: OpHalt, Pos: info.Prog.HaiPos})
	c.sealConsts()
	if !opts.DisableFusion {
		fuseChunk(p.Main)
	}
	return p, nil
}

// compiler emits bytecode for one chunk.
type compiler struct {
	info  *sema.Info
	prog  *Program
	chunk *Chunk
	scope *sema.Scope

	inFunc    bool
	predDepth int        // TXT MAH BFF nesting at the emission point
	ctxs      []breakCtx // innermost-last loop/switch contexts
	consts    map[value.Value]int
}

// breakCtx is one enclosing loop or switch that GTFO can break out of. It
// records the predication depth at entry so a break emitted under deeper
// TXT MAH BFF nesting pops the extra predication entries before jumping —
// the bytecode analog of the interpreter unwinding its pred stack as the
// ctrlBreak signal propagates.
type breakCtx struct {
	breakJumps []int
	predDepth  int
}

func (c *compiler) errf(n ast.Node, format string, args ...any) error {
	return fmt.Errorf("vm: %s: %s", n.Pos(), fmt.Sprintf(format, args...))
}

// emit appends in and returns its index.
func (c *compiler) emit(in Instr) int {
	c.chunk.Code = append(c.chunk.Code, in)
	return len(c.chunk.Code) - 1
}

// emitJump appends a jump with an unresolved target (A = -1).
func (c *compiler) emitJump(op Op, n ast.Node) int {
	return c.emit(Instr{Op: op, A: -1, Pos: n.Pos()})
}

// patch resolves the jump at index at to the next instruction emitted.
func (c *compiler) patch(at int) {
	c.chunk.Code[at].A = len(c.chunk.Code)
}

// konst interns v in the chunk's constant pool.
func (c *compiler) konst(v value.Value) int {
	if c.consts == nil {
		c.consts = make(map[value.Value]int)
	}
	if i, ok := c.consts[v]; ok {
		return i
	}
	c.chunk.Consts = append(c.chunk.Consts, v)
	c.consts[v] = len(c.chunk.Consts) - 1
	return len(c.chunk.Consts) - 1
}

func (c *compiler) sealConsts() { c.consts = nil }

// resolve returns the slot-resolved symbol for a reference.
func (c *compiler) resolve(v *ast.VarRef) (*sema.Symbol, error) {
	if s, ok := v.Sym.(*sema.Symbol); ok {
		return s, nil
	}
	if s, ok := c.scope.Names[v.Name]; ok {
		return s, nil
	}
	return nil, c.errf(v, "unresolved variable %s", v.Name)
}

func remoteFlag(sp ast.Space) int {
	if sp == ast.SpaceUr {
		return flagRemote
	}
	return 0
}

// ---------------------------------------------------------------- statements

func (c *compiler) stmts(ss []ast.Stmt) error {
	for _, s := range ss {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s ast.Stmt) error {
	switch n := s.(type) {
	case *ast.Decl:
		return c.decl(n)

	case *ast.Assign:
		return c.assign(n)

	case *ast.CastStmt:
		if err := c.load(n.Target); err != nil {
			return err
		}
		c.emit(Instr{Op: OpCast, A: int(n.Type), Pos: n.Position})
		return c.store(n.Target)

	case *ast.Visible:
		for _, a := range n.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		flags := 0
		if n.NoNewline {
			flags |= visNoNewline
		}
		if n.Invisible {
			flags |= visStderr
		}
		c.emit(Instr{Op: OpVisible, A: len(n.Args), B: flags, Pos: n.Position})
		return nil

	case *ast.Gimmeh:
		c.emit(Instr{Op: OpGimmeh, Pos: n.Position})
		return c.store(n.Target)

	case *ast.ExprStmt:
		if err := c.expr(n.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpStoreSlot, A: 0, Pos: n.Position}) // IT
		return nil

	case *ast.If:
		return c.ifStmt(n)

	case *ast.Switch:
		return c.switchStmt(n)

	case *ast.Loop:
		return c.loop(n)

	case *ast.Gtfo:
		return c.gtfo(n)

	case *ast.FoundYr:
		if err := c.expr(n.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpReturn, Pos: n.Position})
		return nil

	case *ast.FuncDecl:
		return nil // hoisted; compiled as its own chunk

	case *ast.Barrier:
		c.emit(Instr{Op: OpBarrier, Pos: n.Position})
		return nil

	case *ast.Lock:
		return c.lock(n)

	case *ast.TxtStmt:
		return c.predicated(n, n.Target, func() error { return c.stmt(n.Stmt) })

	case *ast.TxtBlock:
		return c.predicated(n, n.Target, func() error { return c.stmts(n.Body) })
	}
	return c.errf(s, "unhandled statement %T", s)
}

func (c *compiler) predicated(n ast.Stmt, target ast.Expr, body func() error) error {
	if err := c.expr(target); err != nil {
		return err
	}
	c.emit(Instr{Op: OpPredPush, Pos: n.Pos()})
	c.predDepth++
	err := body()
	c.predDepth--
	if err != nil {
		return err
	}
	c.emit(Instr{Op: OpPredPop, A: 1, Pos: n.Pos()})
	return nil
}

// gtfo breaks the innermost loop or switch; inside a function with neither
// it is a bare return of NOOB. The predication entries opened since the
// target construct are popped before the jump (slot/pred unwinding).
func (c *compiler) gtfo(n *ast.Gtfo) error {
	if len(c.ctxs) > 0 {
		ctx := &c.ctxs[len(c.ctxs)-1]
		if extra := c.predDepth - ctx.predDepth; extra > 0 {
			c.emit(Instr{Op: OpPredPop, A: extra, Pos: n.Position})
		}
		ctx.breakJumps = append(ctx.breakJumps, c.emitJump(OpJump, n))
		return nil
	}
	if c.inFunc {
		c.emit(Instr{Op: OpConst, A: c.konst(value.NOOB), Pos: n.Position})
		c.emit(Instr{Op: OpReturn, Pos: n.Position})
		return nil
	}
	return c.errf(n, "GTFO outside of a loop, switch, or function")
}

func (c *compiler) decl(n *ast.Decl) error {
	sym, _ := n.Sym.(*sema.Symbol)
	if sym == nil {
		return c.errf(n, "unresolved declaration %s", n.Name)
	}

	if n.IsArray {
		if err := c.expr(n.Size); err != nil {
			return err
		}
		if sym.Kind == sema.SymShared {
			c.emit(Instr{Op: OpDeclArrHeap, A: sym.Heap, S: n.Name, Pos: n.Position})
		} else {
			c.emit(Instr{Op: OpDeclArrSlot, A: sym.Slot, B: int(n.Type), S: n.Name, Pos: n.Position})
		}
		return nil
	}

	if n.Init != nil {
		if err := c.expr(n.Init); err != nil {
			return err
		}
		if sym.Static {
			c.emit(Instr{Op: OpCast, A: int(sym.Type), S: n.Name, Pos: n.Position})
		}
	} else {
		zero := value.NOOB
		if n.Typed {
			z, err := value.Cast(value.NOOB, n.Type)
			if err != nil {
				return c.errf(n, "typed declaration of %s: %v", n.Name, err)
			}
			zero = z
		}
		c.emit(Instr{Op: OpConst, A: c.konst(zero), Pos: n.Position})
	}
	if sym.Kind == sema.SymShared {
		c.emit(Instr{Op: OpInitHeap, A: sym.Heap, Pos: n.Position})
	} else {
		c.emit(Instr{Op: OpStoreSlot, A: sym.Slot, Pos: n.Position})
	}
	return nil
}

func (c *compiler) ifStmt(n *ast.If) error {
	c.emit(Instr{Op: OpLoadSlot, A: 0, Pos: n.Position}) // the implicit IT
	skip := c.emitJump(OpJumpFalse, n)
	if err := c.stmts(n.Then); err != nil {
		return err
	}
	endJumps := []int{c.emitJump(OpJump, n)}
	c.patch(skip)
	for i := range n.Mebbes {
		m := &n.Mebbes[i]
		if err := c.expr(m.Cond); err != nil {
			return err
		}
		// MEBBE sets IT to its condition before testing it.
		c.emit(Instr{Op: OpDup, Pos: m.Position})
		c.emit(Instr{Op: OpStoreSlot, A: 0, Pos: m.Position})
		skip = c.emitJump(OpJumpFalse, n)
		if err := c.stmts(m.Body); err != nil {
			return err
		}
		endJumps = append(endJumps, c.emitJump(OpJump, n))
		c.patch(skip)
	}
	if n.Else != nil {
		if err := c.stmts(n.Else); err != nil {
			return err
		}
	}
	for _, j := range endJumps {
		c.patch(j)
	}
	return nil
}

func (c *compiler) switchStmt(n *ast.Switch) error {
	c.ctxs = append(c.ctxs, breakCtx{predDepth: c.predDepth})

	// Dispatch: compare IT against each OMG literal in order.
	bodyJumps := make([]int, len(n.Cases))
	for i := range n.Cases {
		cs := &n.Cases[i]
		c.emit(Instr{Op: OpLoadSlot, A: 0, Pos: cs.Position})
		if err := c.expr(cs.Lit); err != nil {
			return err
		}
		c.emit(Instr{Op: OpEqual, Pos: cs.Position})
		bodyJumps[i] = c.emitJump(OpJumpTrue, n)
	}
	toDefault := c.emitJump(OpJump, n)

	// Bodies in order; control falls through case to case until GTFO.
	for i := range n.Cases {
		c.chunk.Code[bodyJumps[i]].A = len(c.chunk.Code)
		if err := c.stmts(n.Cases[i].Body); err != nil {
			return err
		}
	}
	// Falling off the last case skips the default arm.
	skipDefault := c.emitJump(OpJump, n)
	c.patch(toDefault)
	if n.Default != nil {
		if err := c.stmts(n.Default); err != nil {
			return err
		}
	}
	c.patch(skipDefault)

	ctx := c.ctxs[len(c.ctxs)-1]
	c.ctxs = c.ctxs[:len(c.ctxs)-1]
	for _, j := range ctx.breakJumps {
		c.patch(j)
	}
	return nil
}

func (c *compiler) loop(n *ast.Loop) error {
	var sym *sema.Symbol
	if n.Var != "" {
		sym, _ = n.Sym.(*sema.Symbol)
		if sym == nil {
			return c.errf(n, "unresolved loop variable %s", n.Var)
		}
	}
	// Implicitly declared counters are restored on exit (the interpreter's
	// saved/restore dance); declared variables keep their final value.
	restore := sym != nil && sym.Kind == sema.SymLoopVar
	if restore {
		c.emit(Instr{Op: OpLoadSlot, A: sym.Slot, Pos: n.Position}) // save
	}
	if sym != nil {
		// The counter always restarts at 0 (lci semantics).
		c.emit(Instr{Op: OpConst, A: c.konst(value.NewNumbr(0)), Pos: n.Position})
		c.emit(Instr{Op: OpStoreSlot, A: sym.Slot, Pos: n.Position})
	}

	start := len(c.chunk.Code)
	exit := -1
	if n.Cond != nil {
		if err := c.expr(n.Cond); err != nil {
			return err
		}
		if n.CondKind == ast.CondTil {
			exit = c.emitJump(OpJumpTrue, n) // TIL: stop once true
		} else {
			exit = c.emitJump(OpJumpFalse, n) // WILE: stop once false
		}
	}

	c.ctxs = append(c.ctxs, breakCtx{predDepth: c.predDepth})
	if err := c.stmts(n.Body); err != nil {
		return err
	}
	ctx := c.ctxs[len(c.ctxs)-1]
	c.ctxs = c.ctxs[:len(c.ctxs)-1]

	if sym != nil {
		step := 1
		if n.Op == ast.LoopNerfin {
			step = -1
		}
		c.emit(Instr{Op: OpIncSlot, A: sym.Slot, B: step, S: n.Var, Pos: n.Position})
	}
	c.emit(Instr{Op: OpJump, A: start, Pos: n.Position})

	if exit >= 0 {
		c.patch(exit)
	}
	for _, j := range ctx.breakJumps {
		c.patch(j)
	}
	if restore {
		c.emit(Instr{Op: OpStoreSlot, A: sym.Slot, Pos: n.Position})
	}
	return nil
}

func (c *compiler) lock(n *ast.Lock) error {
	sym, err := c.resolve(n.Var)
	if err != nil {
		return err
	}
	if sym.Lock < 0 {
		return c.errf(n, "%v on %s without a lock", n.Action, n.Var.Name)
	}
	op := OpLockRelease
	switch n.Action {
	case ast.LockAcquire:
		op = OpLockAcquire
	case ast.LockTry:
		op = OpLockTry
	}
	c.emit(Instr{Op: op, A: sym.Lock, Pos: n.Position})
	return nil
}

// ------------------------------------------------------- loads and stores

// load pushes the current value of a readable target.
func (c *compiler) load(target ast.Expr) error {
	switch n := target.(type) {
	case *ast.VarRef:
		return c.loadVar(n)
	case *ast.Index:
		return c.loadIndex(n)
	case *ast.Srs:
		if err := c.expr(n.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpSrsLoad, B: int(n.Space), Pos: n.Position})
		return nil
	}
	return c.errf(target, "not a readable target")
}

// store pops the top of stack into an assignment target.
func (c *compiler) store(target ast.Expr) error {
	switch n := target.(type) {
	case *ast.VarRef:
		return c.storeVar(n)
	case *ast.Index:
		return c.storeIndex(n)
	case *ast.Srs:
		if err := c.expr(n.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpSrsStore, B: int(n.Space), Pos: n.Position})
		return nil
	}
	return c.errf(target, "cannot assign to this expression")
}

func (c *compiler) loadVar(n *ast.VarRef) error {
	sym, err := c.resolve(n)
	if err != nil {
		return err
	}
	if sym.Kind != sema.SymShared {
		c.emit(Instr{Op: OpLoadSlot, A: sym.Slot, Pos: n.Position})
		return nil
	}
	op := OpLoadHeap
	if sym.IsArray {
		op = OpLoadHeapArr
	}
	c.emit(Instr{Op: op, A: sym.Heap, B: remoteFlag(n.Space), Pos: n.Position})
	return nil
}

// assign compiles `target R value`. A store into a SRSLY private casts,
// unless the value's static kind is already the declared type: then the
// cast is the identity and a plain slot store does.
func (c *compiler) assign(n *ast.Assign) error {
	if v, ok := n.Target.(*ast.VarRef); ok {
		sym, err := c.resolve(v)
		if err != nil {
			return err
		}
		if k, ok := c.info.StaticKind(n.Value); ok && sym.Kind != sema.SymShared && sym.Static && !sym.IsArray && k == sym.Type {
			if err := c.typed(n.Value, k); err != nil {
				return err
			}
			c.emit(Instr{Op: OpStoreSlot, A: sym.Slot, Pos: v.Position})
			return nil
		}
	}
	if err := c.expr(n.Value); err != nil {
		return err
	}
	return c.store(n.Target)
}

func (c *compiler) storeVar(n *ast.VarRef) error {
	sym, err := c.resolve(n)
	if err != nil {
		return err
	}
	if sym.Kind == sema.SymShared {
		if sym.IsArray {
			c.emit(Instr{Op: OpStoreHeapArr, A: sym.Heap, B: remoteFlag(n.Space), S: n.Name, Pos: n.Position})
			return nil
		}
		if sym.Static {
			c.emit(Instr{Op: OpCast, A: int(sym.Type), S: n.Name, Pos: n.Position})
		}
		c.emit(Instr{Op: OpStoreHeap, A: sym.Heap, B: remoteFlag(n.Space), Pos: n.Position})
		return nil
	}
	switch {
	case sym.Static && !sym.IsArray:
		c.emit(Instr{Op: OpStoreSlotCast, A: sym.Slot, B: int(sym.Type), S: n.Name, Pos: n.Position})
	case sym.IsArray:
		c.emit(Instr{Op: OpStoreSlotArr, A: sym.Slot, Pos: n.Position})
	default:
		c.emit(Instr{Op: OpStoreSlot, A: sym.Slot, Pos: n.Position})
	}
	return nil
}

func (c *compiler) loadIndex(n *ast.Index) error {
	sym, err := c.resolve(n.Arr)
	if err != nil {
		return err
	}
	if err := c.expr(n.IndexE); err != nil {
		return err
	}
	if sym.Kind == sema.SymShared {
		c.emit(Instr{Op: OpLoadElem, A: sym.Heap, B: remoteFlag(n.Arr.Space), Pos: n.Position})
	} else {
		c.emit(Instr{Op: OpLoadElemSlot, A: sym.Slot, S: n.Arr.Name, Pos: n.Position})
	}
	return nil
}

func (c *compiler) storeIndex(n *ast.Index) error {
	sym, err := c.resolve(n.Arr)
	if err != nil {
		return err
	}
	if err := c.expr(n.IndexE); err != nil {
		return err
	}
	if sym.Kind == sema.SymShared {
		c.emit(Instr{Op: OpStoreElem, A: sym.Heap, B: remoteFlag(n.Arr.Space), Pos: n.Position})
	} else {
		c.emit(Instr{Op: OpStoreElemSlot, A: sym.Slot, S: n.Arr.Name, Pos: n.Position})
	}
	return nil
}

// --------------------------------------------------------------- expressions

func (c *compiler) expr(e ast.Expr) error {
	switch n := e.(type) {
	case *ast.NumbrLit:
		c.emit(Instr{Op: OpConst, A: c.konst(value.NewNumbr(n.Value)), Pos: n.Position})
	case *ast.NumbarLit:
		c.emit(Instr{Op: OpConst, A: c.konst(value.NewNumbar(n.Value)), Pos: n.Position})
	case *ast.TroofLit:
		c.emit(Instr{Op: OpConst, A: c.konst(value.NewTroof(n.Value)), Pos: n.Position})
	case *ast.NoobLit:
		c.emit(Instr{Op: OpConst, A: c.konst(value.NOOB), Pos: n.Position})
	case *ast.YarnLit:
		return c.yarn(n)
	case *ast.VarRef:
		return c.loadVar(n)
	case *ast.Index:
		return c.loadIndex(n)
	case *ast.BinExpr:
		return c.binExpr(n)
	case *ast.UnExpr:
		var cl Class
		if k, ok := c.info.StaticKind(n.X); ok && n.Op != value.OpNot {
			cl = kindClass(k)
			if err := c.typed(n.X, k); err != nil {
				return err
			}
		} else if err := c.expr(n.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpUnary, Class: cl, A: int(n.Op), Pos: n.Position})
	case *ast.NaryExpr:
		return c.naryExpr(n)
	case *ast.CastExpr:
		if err := c.expr(n.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpCast, A: int(n.Type), Pos: n.Position})
	case *ast.Call:
		for _, a := range n.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		idx, ok := c.prog.funcIdx[n.Name]
		if !ok {
			return c.errf(n, "I IZ %s: no such function", n.Name)
		}
		c.emit(Instr{Op: OpCall, A: idx, B: len(n.Args), S: n.Name, Pos: n.Position})
	case *ast.Srs:
		if err := c.expr(n.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpSrsLoad, B: int(n.Space), Pos: n.Position})
	case *ast.Me:
		c.emit(Instr{Op: OpMe, Pos: n.Position})
	case *ast.MahFrenz:
		c.emit(Instr{Op: OpMahFrenz, Pos: n.Position})
	case *ast.Whatevr:
		c.emit(Instr{Op: OpWhatevr, Pos: n.Position})
	case *ast.Whatevar:
		c.emit(Instr{Op: OpWhatevar, Pos: n.Position})
	default:
		return c.errf(e, "unhandled expression %T", e)
	}
	return nil
}

func (c *compiler) binExpr(n *ast.BinExpr) error {
	// BOTH OF / EITHER OF short-circuit: evaluate X, coerce to TROOF, and
	// keep it as the result if it decides the answer.
	switch n.Op {
	case value.OpBothOf, value.OpEitherOf:
		if err := c.expr(n.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpTroof, Pos: n.Position})
		op := OpJumpFalseKeep
		if n.Op == value.OpEitherOf {
			op = OpJumpTrueKeep
		}
		end := c.emitJump(op, n)
		c.emit(Instr{Op: OpPop, Pos: n.Position})
		if err := c.expr(n.Y); err != nil {
			return err
		}
		c.emit(Instr{Op: OpTroof, Pos: n.Position})
		c.patch(end)
		return nil
	}
	xk, xok := c.info.StaticKind(n.X)
	yk, yok := c.info.StaticKind(n.Y)
	if !xok || !yok || !classedOp(n.Op) {
		if err := c.expr(n.X); err != nil {
			return err
		}
		if err := c.expr(n.Y); err != nil {
			return err
		}
		c.emit(Instr{Op: OpBinary, A: int(n.Op), Pos: n.Position})
		return nil
	}
	if err := c.typed(n.X, xk); err != nil {
		return err
	}
	if err := c.typed(n.Y, yk); err != nil {
		return err
	}
	c.emit(Instr{Op: OpBinary, Class: pairClass(xk, yk), A: int(n.Op), Pos: n.Position})
	return nil
}

// classedOp reports whether a binary op takes a typed body when sema
// knows both operand kinds: the seven arithmetic operators and the four
// comparisons.
func classedOp(op value.BinOp) bool {
	return op.Arith() || op == value.OpBothSaem || op == value.OpDiffrint
}

// typed emits e, whose static kind is k, for a consumer that reads it
// raw. StaticKind counts a shared SRSLY scalar at its declared type, but
// its heap cell holds NOOB until the owner's WE HAS A has run, so its
// load converts to k and fails at the read if it cannot (as compile's
// typed reads do).
func (c *compiler) typed(e ast.Expr, k value.Kind) error {
	if v, ok := e.(*ast.VarRef); ok {
		sym, err := c.resolve(v)
		if err != nil {
			return err
		}
		if sym.Kind == sema.SymShared && !sym.IsArray {
			c.emit(Instr{Op: OpLoadHeap, Class: kindClass(k), A: sym.Heap, B: remoteFlag(v.Space), Pos: v.Position})
			return nil
		}
	}
	return c.expr(e)
}

func (c *compiler) naryExpr(n *ast.NaryExpr) error {
	switch n.Op {
	case value.OpAllOf, value.OpAnyOf:
		if len(n.Operands) == 0 {
			all := n.Op == value.OpAllOf
			c.emit(Instr{Op: OpConst, A: c.konst(value.NewTroof(all)), Pos: n.Position})
			return nil
		}
		op := OpJumpFalseKeep // ALL OF: first FAIL decides
		if n.Op == value.OpAnyOf {
			op = OpJumpTrueKeep // ANY OF: first WIN decides
		}
		var ends []int
		for i, o := range n.Operands {
			if err := c.expr(o); err != nil {
				return err
			}
			c.emit(Instr{Op: OpTroof, Pos: n.Position})
			if i < len(n.Operands)-1 {
				ends = append(ends, c.emitJump(op, n))
				c.emit(Instr{Op: OpPop, Pos: n.Position})
			}
		}
		for _, j := range ends {
			c.patch(j)
		}
		return nil
	default: // SMOOSH
		for _, o := range n.Operands {
			if err := c.expr(o); err != nil {
				return err
			}
		}
		c.emit(Instr{Op: OpSmoosh, A: len(n.Operands), Pos: n.Position})
		return nil
	}
}

// yarn assembles a YARN literal; :{var} segments compile to slot-resolved
// loads, text segments to constants, joined by OpConcat.
func (c *compiler) yarn(n *ast.YarnLit) error {
	if len(n.Segs) == 0 {
		c.emit(Instr{Op: OpConst, A: c.konst(value.NewYarn("")), Pos: n.Position})
		return nil
	}
	if len(n.Segs) == 1 && n.Segs[0].Var == "" {
		c.emit(Instr{Op: OpConst, A: c.konst(value.NewYarn(n.Segs[0].Text)), Pos: n.Position})
		return nil
	}
	for _, seg := range n.Segs {
		if seg.Var == "" {
			c.emit(Instr{Op: OpConst, A: c.konst(value.NewYarn(seg.Text)), Pos: n.Position})
			continue
		}
		if err := c.loadVar(&ast.VarRef{Position: n.Position, Name: seg.Var}); err != nil {
			return err
		}
	}
	c.emit(Instr{Op: OpConcat, A: len(n.Segs), Pos: n.Position})
	return nil
}
