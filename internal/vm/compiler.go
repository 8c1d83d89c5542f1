package vm

import (
	"fmt"
	"math"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/token"
	"repro/internal/value"
)

// Compile lowers a checked program to bytecode: one chunk for the main
// program and one per HOW IZ I function. All symbol resolution uses the
// slot addresses sema attached to the AST, so the emitted code addresses
// variables by frame slot, word and symmetric-heap index only — the only
// name-keyed lookups left are the ones the language makes dynamic (SRS).
func Compile(info *sema.Info) (*Program, error) {
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
		p.Funcs = append(p.Funcs, newChunk(fd.Name, fi.Scope, len(fd.Params)))
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
		c.seal()
	}
	p.Main = newChunk("main", info.Main, 0)
	c := &compiler{info: info, prog: p, chunk: p.Main, scope: info.Main}
	if err := c.stmts(info.Prog.Body); err != nil {
		return nil, err
	}
	c.emit(Instr{Op: OpHalt, Pos: info.Prog.HaiPos})
	c.seal()
	return p, nil
}

// newChunk makes an empty chunk for a frame. Its word file holds the
// homes of the frame's word symbols, if it has any; constants and
// temporaries are appended as the compiler needs them. Its code has room
// for an instruction per AST node of the frame and a few more: typed code
// covers several nodes an instruction and stack code about one, so no
// chunk of the test corpus or of serve's generated programs outgrows it.
func newChunk(name string, scope *sema.Scope, params int) *Chunk {
	c := &Chunk{Name: name, NSlots: len(scope.Order), Params: params, Scope: scope,
		Code: make([]Instr, 0, codeCap(scope))}
	for _, sym := range scope.Order {
		if isWord(sym) {
			c.growWords()
			break
		}
	}
	return c
}

func codeCap(scope *sema.Scope) int { return scope.Nodes + 8 }

// growWords gives the chunk its word file's homes on first use, with
// room for the constants and temporaries of a typical frame (see konst).
func (c *Chunk) growWords() {
	if c.Words == nil {
		c.Words = make([]uint64, c.NSlots, c.NSlots+c.Scope.Nodes/6)
		c.wkind = make([]value.Kind, c.NSlots, cap(c.Words))
	}
}

// compiler emits bytecode for one chunk.
type compiler struct {
	info  *sema.Info
	prog  *Program
	chunk *Chunk
	scope *sema.Scope

	inFunc    bool
	predDepth int        // TXT MAH BFF nesting at the emission point
	landing   int        // the last index patch resolved a jump to
	ctxs      []breakCtx // innermost-last loop/switch contexts
	consts    map[value.Value]int
	wconsts   map[wconst]int // interned word constants
	free      []int          // released temporary words
}

// wconst is a typed constant's identity in the word file.
type wconst struct {
	k    value.Kind
	bits uint64
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

// emit appends a stack instruction, which weighs 1, and returns its
// index.
func (c *compiler) emit(in Instr) int {
	return c.emitW(in, 1)
}

// emitW appends in with step weight w and returns its index. A weight
// past W's range spills into nops in front of it, so it never wraps.
func (c *compiler) emitW(in Instr, w int) int {
	for w > math.MaxUint32 {
		c.chunk.Code = append(c.chunk.Code, Instr{Op: OpNop, W: math.MaxUint32, Pos: in.Pos})
		w -= math.MaxUint32
	}
	in.W = uint32(w)
	c.chunk.Code = append(c.chunk.Code, in)
	return len(c.chunk.Code) - 1
}

// addW adds w to the weight of the last instruction emitted.
func (c *compiler) addW(w int) {
	last := &c.chunk.Code[len(c.chunk.Code)-1]
	if sum := int(last.W) + w; sum <= math.MaxUint32 {
		last.W = uint32(sum)
		return
	}
	c.emitW(Instr{Op: OpNop, Pos: last.Pos}, w)
}

// emitJump appends a jump with an unresolved target (A = -1).
func (c *compiler) emitJump(op Op, n ast.Node) int {
	return c.emit(Instr{Op: op, A: -1, Pos: n.Pos()})
}

// patch resolves the jump at index at to the next instruction emitted.
func (c *compiler) patch(at int) {
	c.landing = len(c.chunk.Code)
	if in := &c.chunk.Code[at]; in.Op.Word() {
		in.D = c.landing
	} else {
		in.A = c.landing
	}
}

// konst interns v in the chunk's constant pool. The pools are made a bit
// larger than serve's generated programs need: a constant for about every
// 26 of the frame's nodes, and a word constant for about every 9.
func (c *compiler) konst(v value.Value) int {
	if c.consts == nil {
		c.consts = make(map[value.Value]int, c.scope.Nodes/16)
		c.chunk.Consts = make([]value.Value, 0, c.scope.Nodes/16)
	}
	if i, ok := c.consts[v]; ok {
		return i
	}
	c.chunk.Consts = append(c.chunk.Consts, v)
	c.consts[v] = len(c.chunk.Consts) - 1
	return len(c.chunk.Consts) - 1
}

// seal finishes the chunk's pools.
func (c *compiler) seal() {
	c.consts, c.wconsts, c.free = nil, nil, nil
	c.chunk.NWords = len(c.chunk.Words)
}

// newWord appends a word to the frame's word file.
func (c *compiler) newWord(k value.Kind, bits uint64) int {
	ch := c.chunk
	ch.growWords()
	ch.Words = append(ch.Words, bits)
	ch.wkind = append(ch.wkind, k)
	return len(ch.Words) - 1
}

// wconst interns a typed constant in the word file.
func (c *compiler) wconst(k value.Kind, bits uint64) int {
	key := wconst{k, bits}
	if i, ok := c.wconsts[key]; ok {
		return i
	}
	if c.wconsts == nil {
		c.wconsts = make(map[wconst]int, c.scope.Nodes/6)
	}
	i := c.newWord(k, bits)
	c.wconsts[key] = i
	return i
}

// temp is a free temporary word.
func (c *compiler) temp() int {
	if n := len(c.free); n > 0 {
		t := c.free[n-1]
		c.free = c.free[:n-1]
		return t
	}
	return c.newWord(value.Noob, 0)
}

// resolve returns the slot-resolved symbol for a reference.
func (c *compiler) resolve(v *ast.VarRef) (*sema.Symbol, error) {
	if s, ok := v.Sym.(*sema.Symbol); ok {
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

// stmts compiles a statement list. An expression statement whose value
// is a typed comparison and the O RLY? right after it compile together,
// to one IT branch. No jump lands between them: a typed comparison holds
// no jump, and other jumps land only where a construct ends.
func (c *compiler) stmts(ss []ast.Stmt) error {
	for i := 0; i < len(ss); i++ {
		if i+1 < len(ss) {
			e, isExpr := ss[i].(*ast.ExprStmt)
			n, isIf := ss[i+1].(*ast.If)
			if isExpr && isIf {
				if b, ok := c.typedCmp(e.X); ok {
					if err := c.ifStmt(n, b); err != nil {
						return err
					}
					i++
					continue
				}
			}
		}
		if err := c.stmt(ss[i]); err != nil {
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
		return c.ifStmt(n, nil)

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

// predicated compiles a TXT MAH BFF statement or block. The push fails
// where the target does, as in interp and compile.
func (c *compiler) predicated(n ast.Stmt, target ast.Expr, body func() error) error {
	if err := c.expr(target); err != nil {
		return err
	}
	c.emit(Instr{Op: OpPredPush, Pos: target.Pos()})
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

	if isWord(sym) {
		return c.wordDecl(n, sym)
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

// wordDecl declares a word symbol: its typed zero, or its Init converted
// by the SRSLY cast. The weights are the stack compilation's: the Init,
// the cast of a SRSLY declaration, and the store.
//
// SRS may read a word symbol before its declaration has run, where interp
// reads NOOB. So in a body that uses SRS the declaration also marks the
// symbol's value slot, at no step weight, and readSym reads an unmarked
// word symbol as NOOB.
func (c *compiler) wordDecl(n *ast.Decl, sym *sema.Symbol) error {
	if c.scope.Srs {
		c.emitW(Instr{Op: OpConst, A: c.konst(value.NewTroof(true)), Pos: n.Position}, 0)
		c.emitW(Instr{Op: OpStoreSlot, A: sym.Slot, Pos: n.Position}, 0)
	}
	k := repKind(sym)
	if n.Init == nil {
		c.emitW(Instr{Op: OpWMove, A: sym.Slot, B: c.wconst(k, 0), Pos: n.Position}, 2)
		return nil
	}
	w := 1
	if sym.Static {
		w++
	}
	if ik, ok := c.info.StaticKind(n.Init); ok && (ik == k || sym.Static) {
		return c.wstore(n.Init, ik, sym, w, n.Position)
	}
	if err := c.expr(n.Init); err != nil {
		return err
	}
	if sym.Static {
		c.emitW(Instr{Op: OpWCast, A: sym.Slot, B: int(k), Pos: n.Position}, w)
	} else {
		c.emitW(Instr{Op: OpWUnbox, A: sym.Slot, B: int(k), S: n.Name, Pos: n.Position}, w)
	}
	return nil
}

// ifStmt compiles an O RLY?. cond, when not nil, is the typed comparison
// of the expression statement before it, which sets IT; otherwise IT is
// already set.
func (c *compiler) ifStmt(n *ast.If, cond *ast.BinExpr) error {
	var skip int
	if cond != nil {
		var err error
		if skip, err = c.itJump(cond); err != nil {
			return err
		}
	} else {
		c.emit(Instr{Op: OpLoadSlot, A: 0, Pos: n.Position}) // the implicit IT
		skip = c.emitJump(OpJumpFalse, n)
	}
	if err := c.stmts(n.Then); err != nil {
		return err
	}
	endJumps := c.endArm(nil, n, len(n.Mebbes) == 0)
	c.patch(skip)
	for i := range n.Mebbes {
		m := &n.Mebbes[i]
		// MEBBE sets IT to its condition before testing it.
		if b, ok := c.typedCmp(m.Cond); ok {
			var err error
			if skip, err = c.itJump(b); err != nil {
				return err
			}
		} else {
			if err := c.expr(m.Cond); err != nil {
				return err
			}
			c.emit(Instr{Op: OpDup, Pos: m.Position})
			c.emit(Instr{Op: OpStoreSlot, A: 0, Pos: m.Position})
			skip = c.emitJump(OpJumpFalse, n)
		}
		if err := c.stmts(m.Body); err != nil {
			return err
		}
		endJumps = c.endArm(endJumps, n, i == len(n.Mebbes)-1)
		c.patch(skip)
	}
	if err := c.stmts(n.Else); err != nil {
		return err
	}
	for _, j := range endJumps {
		c.patch(j)
	}
	return nil
}

// endArm ends an O RLY? arm with a jump past the construct, which it adds
// to jumps. The last arm before OIC, with no NO WAI after it, needs no
// jump when its last instruction falls through and no jump lands after
// it: that instruction takes the jump's weight instead. (An empty arm's
// last instruction is the branch that skips it, which does not fall
// through.)
func (c *compiler) endArm(jumps []int, n *ast.If, last bool) []int {
	end := len(c.chunk.Code)
	if last && len(n.Else) == 0 && c.landing != end && fallsThrough(c.chunk.Code[end-1].Op) {
		c.addW(1)
		return jumps
	}
	return append(jumps, c.emitJump(OpJump, n))
}

// itJump emits the IT branch for a typed comparison that sets IT and
// skips an arm when it is FAIL, and returns its index for patch. It
// weighs the comparison plus the three stack instructions it replaces:
// the store, load and test of IT after an expression statement, or a
// MEBBE's dup, store and test.
func (c *compiler) itJump(b *ast.BinExpr) (int, error) {
	x, y, err := c.wpair(b)
	if err != nil {
		return 0, err
	}
	at := c.emitW(Instr{Op: OpWJumpIT, A: int(wordBinOp(b.Op, x.k)), B: x.w, C: y.w, D: -1, Pos: b.Position}, 4+x.wt+y.wt)
	c.release(x, y)
	return at, nil
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
		c.patch(bodyJumps[i])
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

// loop compiles a loop. A counter in the word file restarts, counts and
// is saved and restored with word ops, and a comparison of two typed
// operands at the head is one compare-and-branch.
func (c *compiler) loop(n *ast.Loop) error {
	var sym *sema.Symbol
	if n.Var != "" {
		sym, _ = n.Sym.(*sema.Symbol)
		if sym == nil {
			return c.errf(n, "unresolved loop variable %s", n.Var)
		}
	}
	word := sym != nil && isWord(sym)
	// Implicitly declared counters are restored on exit (the interpreter's
	// saved/restore dance); declared variables keep their final value.
	// An inner loop may count the outer loop's implicit counter.
	restore := sym != nil && sym.Kind == sema.SymLoopVar
	save := -1
	switch {
	case restore && word:
		save = c.temp()
		c.emitW(Instr{Op: OpWMove, A: save, B: sym.Slot, Pos: n.Position}, 1)
	case restore:
		c.emit(Instr{Op: OpLoadSlot, A: sym.Slot, Pos: n.Position}) // save
	}
	switch {
	case word:
		// The counter always restarts at 0 (lci semantics).
		c.emitW(Instr{Op: OpWMove, A: sym.Slot, B: c.wconst(value.Numbr, 0), Pos: n.Position}, 2)
	case sym != nil:
		c.emit(Instr{Op: OpConst, A: c.konst(value.NewNumbr(0)), Pos: n.Position})
		c.emit(Instr{Op: OpStoreSlot, A: sym.Slot, Pos: n.Position})
	}

	start := len(c.chunk.Code)
	exit := -1
	if n.Cond != nil {
		onTrue := n.CondKind == ast.CondTil // TIL: stop once true; WILE: once false
		if b, ok := c.typedCmp(n.Cond); ok {
			x, y, err := c.wpair(b)
			if err != nil {
				return err
			}
			sense := 0
			if onTrue {
				sense = 1
			}
			exit = c.emitW(Instr{Op: wordJumpOp(b.Op, x.k), A: sense, B: x.w, C: y.w, D: -1, Pos: b.Position}, 2+x.wt+y.wt)
			c.release(x, y)
		} else {
			if err := c.expr(n.Cond); err != nil {
				return err
			}
			if onTrue {
				exit = c.emitJump(OpJumpTrue, n)
			} else {
				exit = c.emitJump(OpJumpFalse, n)
			}
		}
	}

	c.ctxs = append(c.ctxs, breakCtx{predDepth: c.predDepth})
	if err := c.stmts(n.Body); err != nil {
		return err
	}
	ctx := c.ctxs[len(c.ctxs)-1]
	c.ctxs = c.ctxs[:len(c.ctxs)-1]

	step := 1
	if n.Op == ast.LoopNerfin {
		step = -1
	}
	switch {
	case word:
		c.emitW(Instr{Op: OpWIncJump, A: sym.Slot, B: step, D: start, S: n.Var, Pos: n.Position}, 2)
	case sym != nil:
		c.emit(Instr{Op: OpIncSlot, A: sym.Slot, B: step, S: n.Var, Pos: n.Position})
		c.emit(Instr{Op: OpJump, A: start, Pos: n.Position})
	default:
		c.emit(Instr{Op: OpJump, A: start, Pos: n.Position})
	}

	if exit >= 0 {
		c.patch(exit)
	}
	for _, j := range ctx.breakJumps {
		c.patch(j)
	}
	switch {
	case restore && word:
		c.emitW(Instr{Op: OpWMove, A: sym.Slot, B: save, Pos: n.Position}, 1)
		c.free = append(c.free, save)
	case restore:
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
		c.emit(Instr{Op: OpSrsLoad, A: c.srsNames(n), B: int(n.Space), Pos: n.Position})
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
		c.emit(Instr{Op: OpSrsStore, A: c.srsNames(n), B: int(n.Space), Pos: n.Position})
		return nil
	}
	return c.errf(target, "cannot assign to this expression")
}

// srsNames adds what an SRS can name to the chunk's table and returns its
// index.
func (c *compiler) srsNames(n *ast.Srs) int {
	c.chunk.srs = append(c.chunk.srs, n.Names.(*sema.SrsNames))
	return len(c.chunk.srs) - 1
}

func (c *compiler) loadVar(n *ast.VarRef) error {
	sym, err := c.resolve(n)
	if err != nil {
		return err
	}
	if isWord(sym) {
		c.box(opnd{w: sym.Slot, k: repKind(sym), wt: 1}, n.Position)
		return nil
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

// assign compiles `target R value`. A typed value stored into a word
// symbol goes straight into its word, converted for a SRSLY target of
// the other numeric kind.
func (c *compiler) assign(n *ast.Assign) error {
	if v, ok := n.Target.(*ast.VarRef); ok {
		sym, err := c.resolve(v)
		if err != nil {
			return err
		}
		if k, ok := c.info.StaticKind(n.Value); ok && isWord(sym) && (k == repKind(sym) || sym.Static) {
			return c.wstore(n.Value, k, sym, 1, v.Position)
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
	case isWord(sym) && sym.Static:
		c.emit(Instr{Op: OpWStoreCast, A: sym.Slot, B: int(sym.Type), S: n.Name, Pos: n.Position})
	case isWord(sym):
		c.emit(Instr{Op: OpWUnbox, A: sym.Slot, B: int(repKind(sym)), S: n.Name, Pos: n.Position})
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

// expr pushes e's value for a dynamic consumer. A typed operation is
// computed in the word file and its result boxed by one op.
func (c *compiler) expr(e ast.Expr) error {
	if k, ok := c.info.StaticKind(e); ok && c.lowered(e) {
		o, err := c.wval(e, k, -1)
		if err != nil {
			return err
		}
		c.box(o, e.Pos())
		return nil
	}
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
		if err := c.expr(n.X); err != nil {
			return err
		}
		c.emit(Instr{Op: OpUnary, A: int(n.Op), Pos: n.Position})
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
		return c.load(n)
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

// lowered reports whether expr computes a typed e in the word file. A
// literal, a variable or a builtin is pushed by one stack op as cheaply
// (a shared SRSLY scalar unconverted, as interp reads it), and a MAEK of
// a dynamic operand casts on the stack.
func (c *compiler) lowered(e ast.Expr) bool {
	switch n := e.(type) {
	case *ast.BinExpr, *ast.UnExpr, *ast.Index:
		return true
	case *ast.CastExpr:
		_, ok := c.info.StaticKind(n.X)
		return ok
	}
	return false
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
	if b, ok := c.typedCmp(n); ok {
		x, y, err := c.wpair(b)
		if err != nil {
			return err
		}
		c.emitW(Instr{Op: wordBinOp(b.Op, x.k), B: x.w, C: y.w, Pos: b.Position}, 1+x.wt+y.wt)
		c.release(x, y)
		return nil
	}
	if err := c.expr(n.X); err != nil {
		return err
	}
	if err := c.expr(n.Y); err != nil {
		return err
	}
	c.emit(Instr{Op: OpBinary, A: int(n.Op), Pos: n.Position})
	return nil
}

// typedCmp reports whether e is a BIGGER, SMALLR, BOTH SAEM or DIFFRINT
// whose operand kinds sema knows.
func (c *compiler) typedCmp(e ast.Expr) (*ast.BinExpr, bool) {
	b, ok := e.(*ast.BinExpr)
	if !ok || b.Op < value.OpBigger || b.Op > value.OpDiffrint {
		return nil, false
	}
	_, xok := c.info.StaticKind(b.X)
	_, yok := c.info.StaticKind(b.Y)
	return b, xok && yok
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

// yarn assembles a YARN literal; :{var} segments compile to loads of the
// references sema bound, text segments to constants, joined by OpConcat.
func (c *compiler) yarn(n *ast.YarnLit) error {
	if len(n.Segs) == 0 {
		c.emit(Instr{Op: OpConst, A: c.konst(value.NewYarn("")), Pos: n.Position})
		return nil
	}
	if len(n.Segs) == 1 && n.Segs[0].Var == "" {
		c.emit(Instr{Op: OpConst, A: c.konst(value.NewYarn(n.Segs[0].Text)), Pos: n.Position})
		return nil
	}
	refs := n.Refs
	for _, seg := range n.Segs {
		if seg.Var == "" {
			c.emit(Instr{Op: OpConst, A: c.konst(value.NewYarn(seg.Text)), Pos: n.Position})
			continue
		}
		if err := c.loadVar(refs[0]); err != nil {
			return err
		}
		refs = refs[1:]
	}
	c.emit(Instr{Op: OpConcat, A: len(n.Segs), Pos: n.Position})
	return nil
}

// ------------------------------------------------------------- word code

// opnd is a typed value in the word file.
type opnd struct {
	w int        // the word holding it
	k value.Kind // value.Numbr or value.Numbar
	// wt is the step weight of the loads and identity casts it stands
	// for, which the op that reads it carries.
	wt int
	// temp marks a temporary, released once read; fresh, a result the
	// last op emitted wrote into the word wval was asked for.
	temp, fresh bool
}

// release frees the temporaries among os.
func (c *compiler) release(os ...opnd) {
	for _, o := range os {
		if o.temp {
			c.free = append(c.free, o.w)
		}
	}
}

// box pushes o for a dynamic consumer.
func (c *compiler) box(o opnd, pos token.Pos) {
	op := OpWBoxI
	if o.k == value.Numbar {
		op = OpWBoxF
	}
	c.emitW(Instr{Op: op, A: o.w, Pos: pos}, o.wt)
	c.release(o)
}

// wop emits the word op in, weighing w, which reads the operands reads
// and yields a value of kind k: into word into when into >= 0, else into
// a temporary.
func (c *compiler) wop(in Instr, w int, k value.Kind, into int, reads ...opnd) opnd {
	c.release(reads...)
	o := opnd{w: into, k: k, fresh: true}
	if into < 0 {
		o = opnd{w: c.temp(), k: k, temp: true}
	}
	in.A = o.w
	c.emitW(in, w)
	return o
}

// wstore compiles e, of static kind k, into word symbol sym. w is the
// weight of the store (and of a SRSLY declaration's cast). A SRSLY
// symbol of the other numeric kind takes e converted, as its cast does.
func (c *compiler) wstore(e ast.Expr, k value.Kind, sym *sema.Symbol, w int, pos token.Pos) error {
	sk := repKind(sym)
	into := -1
	if k == sk {
		into = sym.Slot
	}
	o, err := c.wval(e, k, into)
	if err != nil {
		return err
	}
	if f, ok := c.fold(o, sk); ok {
		o = f
	}
	switch {
	case o.k != sk:
		op := OpWWiden
		if sk == value.Numbr {
			op = OpWTrunc
		}
		c.wop(Instr{Op: op, B: o.w, Pos: pos}, w+o.wt, sk, sym.Slot, o)
	case o.fresh:
		c.addW(w + o.wt)
	default:
		c.wop(Instr{Op: OpWMove, B: o.w, Pos: pos}, w+o.wt, sk, sym.Slot, o)
	}
	return nil
}

// fold converts a constant operand to kind k at compile time, as
// OpWWiden or OpWTrunc would at run time.
func (c *compiler) fold(o opnd, k value.Kind) (opnd, bool) {
	if o.temp || c.chunk.wkind[o.w] != o.k {
		return o, false
	}
	u := c.chunk.Words[o.w]
	switch {
	case o.k == k:
		return o, true
	case k == value.Numbar:
		u = fw(float64(int64(u)))
	default:
		u = uint64(int64(wf(u)))
	}
	return opnd{w: c.wconst(k, u), k: k, wt: o.wt}, true
}

// widen makes a NUMBR operand a NUMBAR, as value.Binary widens a mixed
// pair: a constant folds, anything else takes one op.
func (c *compiler) widen(o opnd, pos token.Pos) opnd {
	if f, ok := c.fold(o, value.Numbar); ok || o.k == value.Numbar {
		return f
	}
	return c.wop(Instr{Op: OpWWiden, B: o.w, Pos: pos}, o.wt, value.Numbar, -1, o)
}

// wpair compiles a typed binary op's operands, X first, and widens a
// NUMBR of a mixed pair.
func (c *compiler) wpair(n *ast.BinExpr) (x, y opnd, err error) {
	xk, _ := c.info.StaticKind(n.X)
	yk, _ := c.info.StaticKind(n.Y)
	if x, err = c.wval(n.X, xk, -1); err != nil {
		return
	}
	if y, err = c.wval(n.Y, yk, -1); err != nil {
		return
	}
	if x.k != y.k {
		x, y = c.widen(x, n.Position), c.widen(y, n.Position)
	}
	return x, y, nil
}

// wval compiles e, whose static kind is k, into the word file and
// returns the operand holding it. into >= 0 asks for the result in that
// word (a store into a word symbol); a variable or constant stays where
// it lives, with its load's weight pending. Each op covers one AST
// operation and carries the stack compilation's weight for it: 1, plus
// the pending weight of the operands it reads.
func (c *compiler) wval(e ast.Expr, k value.Kind, into int) (opnd, error) {
	switch n := e.(type) {
	case *ast.NumbrLit:
		return opnd{w: c.wconst(value.Numbr, uint64(n.Value)), k: value.Numbr, wt: 1}, nil
	case *ast.NumbarLit:
		return opnd{w: c.wconst(value.Numbar, fw(n.Value)), k: value.Numbar, wt: 1}, nil
	case *ast.VarRef:
		sym, err := c.resolve(n)
		if err != nil {
			return opnd{}, err
		}
		if isWord(sym) {
			return opnd{w: sym.Slot, k: k, wt: 1}, nil
		}
		if sym.Kind == sema.SymShared && !sym.IsArray {
			op := OpWLoadHeapI
			if k == value.Numbar {
				op = OpWLoadHeapF
			}
			return c.wop(Instr{Op: op, B: sym.Heap, C: remoteFlag(n.Space), Pos: n.Position}, 1, k, into), nil
		}
	case *ast.Index:
		return c.welem(n, k, into)
	case *ast.BinExpr:
		x, y, err := c.wpair(n)
		if err != nil {
			return opnd{}, err
		}
		return c.wop(Instr{Op: wordBinOp(n.Op, x.k), B: x.w, C: y.w, Pos: n.Position}, 1+x.wt+y.wt, k, into, x, y), nil
	case *ast.UnExpr:
		xk, _ := c.info.StaticKind(n.X)
		x, err := c.wval(n.X, xk, -1)
		if err != nil {
			return opnd{}, err
		}
		return c.wop(Instr{Op: wordUnOp(n.Op, xk), B: x.w, Pos: n.Position}, 1+x.wt, k, into, x), nil
	case *ast.CastExpr:
		xk, ok := c.info.StaticKind(n.X)
		switch {
		case !ok:
			if err := c.expr(n.X); err != nil {
				return opnd{}, err
			}
			return c.wop(Instr{Op: OpWCast, B: int(k), Pos: n.Position}, 1, k, into), nil
		case xk == k:
			x, err := c.wval(n.X, xk, into)
			x.wt++
			return x, err
		}
		x, err := c.wval(n.X, xk, -1)
		if err != nil {
			return opnd{}, err
		}
		op := OpWWiden
		if k == value.Numbr {
			op = OpWTrunc
		}
		return c.wop(Instr{Op: op, B: x.w, Pos: n.Position}, 1+x.wt, k, into, x), nil
	case *ast.Me:
		return c.wop(Instr{Op: OpWMe, Pos: n.Position}, 1, k, into), nil
	case *ast.MahFrenz:
		return c.wop(Instr{Op: OpWMahFrenz, Pos: n.Position}, 1, k, into), nil
	case *ast.Whatevr:
		return c.wop(Instr{Op: OpWWhatevr, Pos: n.Position}, 1, k, into), nil
	case *ast.Whatevar:
		return c.wop(Instr{Op: OpWWhatevar, Pos: n.Position}, 1, k, into), nil
	}
	return opnd{}, c.errf(e, "no word lowering for %T", e)
}

// welem reads an element of a TypedElems array. A NUMBR subscript is
// read from its word; any other is pushed and converted as the stack
// element loads convert it.
func (c *compiler) welem(n *ast.Index, k value.Kind, into int) (opnd, error) {
	sym, err := c.resolve(n.Arr)
	if err != nil {
		return opnd{}, err
	}
	var idx opnd
	if ik, ok := c.info.StaticKind(n.IndexE); ok && ik == value.Numbr {
		if idx, err = c.wval(n.IndexE, ik, -1); err != nil {
			return opnd{}, err
		}
	} else {
		if err := c.expr(n.IndexE); err != nil {
			return opnd{}, err
		}
		idx = c.wop(Instr{Op: OpWIndex, Pos: n.Position}, 0, value.Numbr, -1)
	}
	in := Instr{Op: OpWElemSlotI, B: idx.w, C: sym.Slot, S: n.Arr.Name, Pos: n.Position}
	if sym.Kind == sema.SymShared {
		in = Instr{Op: OpWElemHeapI, B: idx.w, C: sym.Heap, D: remoteFlag(n.Arr.Space), Pos: n.Position}
	}
	if k == value.Numbar {
		in.Op++
	}
	return c.wop(in, 1+idx.wt, k, into, idx), nil
}
