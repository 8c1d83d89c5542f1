package vm

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sema"
	"repro/internal/token"
	"repro/internal/value"
)

// Op is a bytecode operation. Dynamic code runs on a value stack:
// operands named in the comments are popped from (and results pushed
// onto) the evaluation stack; A, B, C and D are immediate operands baked
// into the instruction at compile time. Typed code runs on the frame's
// word file instead (the OpW ops; see the package doc): A is the
// destination word and B and C the operand words, w[i] naming word i.
//
// The enum is laid out deliberately: the hot cluster — the plain stack
// ops and the word ops — occupies the dense low range so the dispatch
// switch's jump table keeps the loop-dominant cases together; the cold
// I/O, heap-array and dynamic-lookup ops follow.
type Op uint8

const (
	OpNop Op = iota

	// --- the hot cluster: stack, slots, arithmetic, control flow
	OpConst     // push Consts[A]
	OpLoadSlot  // push slots[A]
	OpStoreSlot // slots[A] = pop
	OpIncSlot   // slots[A] = NUMBR(slots[A]) + B (B is +1 or -1); S names the loop var
	OpBinary    // y=pop, x=pop; push Binary(BinOp(A), x, y)
	OpJump      // ip = A (A is the absolute jump target, patched at compile)
	OpJumpFalse // pop; jump when not truthy
	OpJumpTrue  // pop; jump when truthy

	// --- word ops. The two binary blocks follow value.BinOp's order from
	// SUM OF to DIFFRINT, so wordBinOp is one addition: the seven
	// arithmetic ops write w[A] = w[B] op w[C], the four comparisons push
	// TROOF(w[B] op w[C]). Both operands have the block's kind; a NUMBR
	// operand of a NUMBAR op is widened first, as value.Binary widens.
	OpWSumI // NUMBR block
	OpWDiffI
	OpWProduktI
	OpWQuoshuntI
	OpWModI
	OpWBiggrOfI
	OpWSmallrOfI
	OpWBiggerI
	OpWSmallrI
	OpWBothSaemI
	OpWDiffrintI
	OpWSumF // NUMBAR block
	OpWDiffF
	OpWProduktF
	OpWQuoshuntF
	OpWModF
	OpWBiggrOfF
	OpWSmallrOfF
	OpWBiggerF
	OpWSmallrF
	OpWBothSaemF
	OpWDiffrintF

	// Compare-and-branch, in the comparisons' BinOp order: jump to D when
	// (w[B] op w[C]) == (A != 0).
	OpWJumpBiggerI
	OpWJumpSmallrI
	OpWJumpBothSaemI
	OpWJumpDiffrintI
	OpWJumpBiggerF
	OpWJumpSmallrF
	OpWJumpBothSaemF
	OpWJumpDiffrintF

	// The IT branch, a typed O RLY? or MEBBE condition: IT = TROOF(w[B]
	// op w[C]), then jump to D when it is FAIL. A is the comparison's word
	// op, OpWBiggerI … OpWDiffrintF, which names the operator and kind.
	OpWJumpIT

	// Unary math, two per value.UnOp from SQUAR OF: w[A] = op w[B] for a
	// NUMBR (I) or NUMBAR (F) operand. Only SQUAR OF of a NUMBR yields a
	// NUMBR.
	OpWSquarI
	OpWSquarF
	OpWUnsquarI
	OpWUnsquarF
	OpWFlipI
	OpWFlipF

	OpWMove    // w[A] = w[B]
	OpWWiden   // w[A] = NUMBAR(w[B]), w[B] a NUMBR
	OpWTrunc   // w[A] = NUMBR(w[B]), w[B] a NUMBAR: MAEK's truncation
	OpWIncJump // w[A] += B; ip = D (a loop back-edge); S names the counter
	OpWBoxI    // push NUMBR w[A]
	OpWBoxF    // push NUMBAR w[A]

	// Typed reads into w[A].
	OpWElemSlotI // w[A] = slots[C][w[B]], a private NUMBRS array; S names it
	OpWElemSlotF // the same for NUMBARS
	OpWElemHeapI // w[A] = heap[C][w[B]] of the target PE (D&flagRemote)
	OpWElemHeapF // the same for NUMBARS
	OpWLoadHeapI // w[A] = shared scalar heap[B] (C&flagRemote), converted to NUMBR
	OpWLoadHeapF // the same, converted to NUMBAR
	OpWMe        // w[A] = the PE id
	OpWMahFrenz  // w[A] = the PE count
	OpWWhatevr   // w[A] = a random NUMBR
	OpWWhatevar  // w[A] = a random NUMBAR in [0,1)

	// --- the rest of the frame/stack ops
	OpPop           // drop the top of stack
	OpDup           // duplicate the top of stack
	OpStoreSlotCast // slots[A] = cast(pop, Kind(B)); S names the SRSLY var
	OpStoreSlotArr  // array-aware store into slots[A]: copy into an existing array
	OpLoadElemSlot  // i=pop; push slots[A][i]; S names the array
	OpStoreElemSlot // i=pop, v=pop; slots[A][i] = v; S names the array
	OpJumpFalseKeep // peek; jump when not truthy, keeping the value (short-circuit)
	OpJumpTrueKeep  // peek; jump when truthy, keeping the value (short-circuit)

	// --- the word file's boundary with dynamic values
	OpWIndex     // w[A] = pop as an array index
	OpWCast      // w[A] = Cast(pop, Kind(B)) (a MAEK of a dynamic operand)
	OpWStoreCast // w[A] = Cast(pop, Kind(B)); S names the SRSLY var
	OpWUnbox     // w[A] = pop, which sema promised is a Kind(B); S names the var

	// --- symmetric heap (PGAS); B&flagRemote selects the predication target
	OpLoadHeap     // push scalar heap[A] (local get, or remote get of pred target)
	OpLoadHeapArr  // push a deep copy of array heap[A] (GetArray)
	OpStoreHeap    // put pop into heap[A] of the target PE
	OpStoreHeapArr // put array pop into heap[A] of the target PE; S names the array
	OpLoadElem     // i=pop; push heap[A][i] of the target PE
	OpStoreElem    // i=pop, v=pop; heap[A][i] of the target PE = v
	OpDeclArrSlot  // size=pop; slots[A] = new array of Kind(B); S names the array
	OpDeclArrHeap  // size=pop; allocate heap[A] symmetrically; S names the array
	OpInitHeap     // v=pop; initialize scalar heap[A]

	// --- operators
	OpUnary  // x=pop; push Unary(UnOp(A), x)
	OpCast   // x=pop; push Cast(x, Kind(A)); S gives the error context
	OpTroof  // x=pop; push TROOF(x.ToTroof())
	OpEqual  // y=pop, x=pop; push TROOF(Equal(x, y))  (WTF? case dispatch)
	OpConcat // pop A values; push the YARN of their Displays (:{} interpolation)
	OpSmoosh // pop A values; push Nary(OpSmoosh, ...)

	// --- I/O
	OpVisible // pop A values; write their Displays; B flags: visNoNewline|visStderr
	OpGimmeh  // push the next stdin line as a YARN

	// --- parallel extensions (paper Table II)
	OpBarrier     // HUGZ
	OpLockAcquire // IM SRSLY MESIN WIF lock A; sets IT to WIN
	OpLockTry     // IM MESIN WIF lock A; sets IT to the outcome
	OpLockRelease // DUN MESIN WIF lock A
	OpPredPush    // pop a PE rank, validate, push onto the predication stack
	OpPredPop     // pop A entries off the predication stack

	// --- builtins
	OpMe       // push the PE id
	OpMahFrenz // push the PE count
	OpWhatevr  // push a random NUMBR
	OpWhatevar // push a random NUMBAR in [0,1)

	// --- dynamic symbol access (SRS); B is the ast.Space
	OpSrsLoad  // name=pop; resolve in srs[A] and read
	OpSrsStore // name=pop, v=pop; resolve in srs[A] and write

	// --- calls
	OpCall     // call Funcs[A] with B arguments popped from the stack; S names it
	OpReturn   // v=pop; unwind the frame and push v on the caller's stack
	OpReturnIT // return the frame's IT (fall-off-the-end semantics)
	OpHalt     // end of the main chunk
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpPop: "pop", OpDup: "dup",
	OpLoadSlot: "load.slot", OpStoreSlot: "store.slot",
	OpStoreSlotCast: "store.slot.cast", OpStoreSlotArr: "store.slot.arr",
	OpIncSlot:  "inc.slot",
	OpLoadHeap: "load.heap", OpLoadHeapArr: "load.heap.arr",
	OpStoreHeap: "store.heap", OpStoreHeapArr: "store.heap.arr",
	OpLoadElem: "load.elem", OpStoreElem: "store.elem",
	OpLoadElemSlot: "load.elem.slot", OpStoreElemSlot: "store.elem.slot",
	OpDeclArrSlot: "decl.arr.slot", OpDeclArrHeap: "decl.arr.heap",
	OpInitHeap: "init.heap",
	OpBinary:   "binary", OpUnary: "unary", OpCast: "cast", OpTroof: "troof",
	OpEqual: "equal", OpConcat: "concat", OpSmoosh: "smoosh",
	OpJump: "jump", OpJumpFalse: "jump.false", OpJumpTrue: "jump.true",
	OpJumpFalseKeep: "jump.false.keep", OpJumpTrueKeep: "jump.true.keep",
	OpVisible: "visible", OpGimmeh: "gimmeh",
	OpBarrier: "barrier", OpLockAcquire: "lock.acquire", OpLockTry: "lock.try",
	OpLockRelease: "lock.release", OpPredPush: "pred.push", OpPredPop: "pred.pop",
	OpMe: "me", OpMahFrenz: "mahfrenz", OpWhatevr: "whatevr", OpWhatevar: "whatevar",
	OpSrsLoad: "srs.load", OpSrsStore: "srs.store",
	OpCall: "call", OpReturn: "return", OpReturnIT: "return.it", OpHalt: "halt",

	OpWSquarI: "w.squar.i", OpWSquarF: "w.squar.f",
	OpWUnsquarI: "w.unsquar.i", OpWUnsquarF: "w.unsquar.f",
	OpWFlipI: "w.flip.i", OpWFlipF: "w.flip.f",
	OpWMove: "w.move", OpWWiden: "w.widen", OpWTrunc: "w.trunc",
	OpWJumpIT: "w.jump.it", OpWIncJump: "w.inc.jump", OpWBoxI: "w.box.i", OpWBoxF: "w.box.f",
	OpWElemSlotI: "w.elem.slot.i", OpWElemSlotF: "w.elem.slot.f",
	OpWElemHeapI: "w.elem.heap.i", OpWElemHeapF: "w.elem.heap.f",
	OpWLoadHeapI: "w.load.heap.i", OpWLoadHeapF: "w.load.heap.f",
	OpWMe: "w.me", OpWMahFrenz: "w.mahfrenz", OpWWhatevr: "w.whatevr", OpWWhatevar: "w.whatevar",
	OpWIndex: "w.index", OpWCast: "w.cast", OpWStoreCast: "w.store.cast", OpWUnbox: "w.unbox",
}

// The binary blocks' names derive from the operators': "w.sum.i",
// "w.biggr.of.f", "w.jump.both.saem.i".
func init() {
	for op := value.OpSum; op <= value.OpDiffrint; op++ {
		name := strings.ToLower(strings.ReplaceAll(op.String(), " ", "."))
		opNames[wordBinOp(op, value.Numbr)] = "w." + name + ".i"
		opNames[wordBinOp(op, value.Numbar)] = "w." + name + ".f"
		if op >= value.OpBigger {
			opNames[wordJumpOp(op, value.Numbr)] = "w.jump." + name + ".i"
			opNames[wordJumpOp(op, value.Numbar)] = "w.jump." + name + ".f"
		}
	}
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Word reports whether op reads or writes the word file.
func (op Op) Word() bool {
	return op >= OpWSumI && op <= OpWWhatevar || op >= OpWIndex && op <= OpWUnbox
}

// fallsThrough reports whether op always goes on to the next
// instruction: it is no jump, return or halt.
func fallsThrough(op Op) bool {
	return !(op >= OpJump && op <= OpJumpTrue || op >= OpWJumpBiggerI && op <= OpWJumpIT ||
		op == OpWIncJump || op == OpJumpFalseKeep || op == OpJumpTrueKeep || op >= OpReturn)
}

// wordBinOp is the word opcode of a SUM OF … DIFFRINT op on operands of
// kind k.
func wordBinOp(op value.BinOp, k value.Kind) Op {
	if k == value.Numbar {
		return OpWSumF + Op(op)
	}
	return OpWSumI + Op(op)
}

// wordJumpOp is the compare-and-branch opcode of a comparison op on
// operands of kind k.
func wordJumpOp(op value.BinOp, k value.Kind) Op {
	o := OpWJumpBiggerI + Op(op-value.OpBigger)
	if k == value.Numbar {
		o += OpWJumpBiggerF - OpWJumpBiggerI
	}
	return o
}

// wordUnOp is the word opcode of a SQUAR OF, UNSQUAR OF or FLIP OF op on
// an operand of kind k.
func wordUnOp(op value.UnOp, k value.Kind) Op {
	o := OpWSquarI + 2*Op(op-value.OpSquar)
	if k == value.Numbar {
		o++
	}
	return o
}

// wordOpKind is the operand kind of a typed binary or compare-and-branch
// op, and the op's BinOp.
func wordOpKind(op Op) (value.BinOp, value.Kind) {
	switch {
	case op >= OpWSumI && op <= OpWDiffrintI:
		return value.BinOp(op - OpWSumI), value.Numbr
	case op >= OpWSumF && op <= OpWDiffrintF:
		return value.BinOp(op - OpWSumF), value.Numbar
	case op >= OpWJumpBiggerI && op <= OpWJumpDiffrintI:
		return value.OpBigger + value.BinOp(op-OpWJumpBiggerI), value.Numbr
	}
	return value.OpBigger + value.BinOp(op-OpWJumpBiggerF), value.Numbar
}

// OpVisible B flags.
const (
	visNoNewline = 1 << iota
	visStderr
)

// flagRemote in B marks a heap access as addressing the predication target
// (a UR reference) instead of the local PE.
const flagRemote = 1

// Instr is one decoded instruction. The VM trades the byte-packed encoding
// of a production VM for direct struct access: no operand decoding on the
// hot path, and every instruction carries its source position for errors.
// D is the jump target of the word branches (compare-and-branch, the IT
// branch and increment-and-jump), whose A, B and C hold operands.
//
// W is the instruction's step weight: the number of stack instructions a
// plain stack compilation of the AST nodes it covers would execute (see
// the package doc). The meter charges W per execution, so a step budget
// counts the same steps whatever the lowering. W sits in the padding
// after Op, so it costs no space.
type Instr struct {
	Op         Op
	W          uint32
	A, B, C, D int
	S          string // symbol name for error messages; usually empty
	Pos        token.Pos
}

func (in Instr) String() string {
	s := fmt.Sprintf("%-16s A=%d B=%d", in.Op, in.A, in.B)
	if in.C != 0 || in.D != 0 {
		s += fmt.Sprintf(" C=%d D=%d", in.C, in.D)
	}
	if in.S != "" {
		s += " S=" + in.S
	}
	return s
}

// Chunk is one compiled frame body: the main program or one HOW IZ I
// function. NSlots is the frame size computed by sema's slot resolution,
// and Scope the frame's symbols. srs holds what each SRS of the chunk
// can name, indexed by OpSrsLoad's and OpSrsStore's A: the one lookup
// the language forces to stay dynamic.
//
// Words is the template every frame's word file starts as: NWords
// words, the first NSlots the homes of the frame's word symbols (by
// slot), then the typed constants, holding their bits, and the
// temporaries. wkind records each constant's kind for listings.
type Chunk struct {
	Name   string
	Code   []Instr
	Consts []value.Value
	NSlots int
	NWords int
	Words  []uint64
	wkind  []value.Kind
	Params int
	Scope  *sema.Scope
	srs    []*sema.SrsNames
}

// The word file's helpers. A word holds a NUMBR's int64 bits or a
// NUMBAR's float64 bits and records no kind: the opcode reading it knows
// the kind, and W its step weight. Values cross the boundary only
// through these helpers: wordValue boxes a word for a dynamic consumer;
// unbox checks the kind sema promised for a dynamic value stored into a
// word, castWord casts one as MAEK or a SRSLY store does, and heapWord
// converts a shared SRSLY scalar as every typed read of it does.

// isWord reports whether sym lives in the word file: a private or loop
// counter sema holds as a raw int64 or float64.
func isWord(sym *sema.Symbol) bool {
	return sym.Kind != sema.SymShared && !sym.IsArray && (sym.Rep == sema.RepInt || sym.Rep == sema.RepFloat)
}

// repKind is the kind a word symbol holds.
func repKind(sym *sema.Symbol) value.Kind {
	if sym.Rep == sema.RepFloat {
		return value.Numbar
	}
	return value.Numbr
}

// The word file holds a NUMBR as its int64 bits and a NUMBAR as its
// float64 bits.
func wf(u uint64) float64 { return math.Float64frombits(u) }
func fw(f float64) uint64 { return math.Float64bits(f) }

// wordValue boxes a word of kind k.
func wordValue(u uint64, k value.Kind) value.Value {
	if k == value.Numbar {
		return value.NewNumbar(wf(u))
	}
	return value.NewNumbr(int64(u))
}

// unbox is the word of v, which sema promised is a k. A broken promise
// is an internal error, never a read of the wrong payload.
func unbox(v value.Value, k value.Kind, name string) (uint64, error) {
	switch {
	case v.Kind() != k:
	case k == value.Numbar:
		return fw(v.Numbar()), nil
	default:
		return uint64(v.Numbr()), nil
	}
	return 0, fmt.Errorf("vm: internal error: %s holds a %s where a %s was proven", name, v.Kind(), k)
}

// castWord is Cast(v, k) as a word.
func castWord(v value.Value, k value.Kind) (uint64, error) {
	cv, err := value.Cast(v, k)
	if err != nil {
		return 0, err
	}
	return unbox(cv, k, "MAEK")
}

// heapWord makes a shared SRSLY scalar read, v, the kind k sema counts
// it at: a no-op once the owner's WE HAS A has run, a conversion (or its
// error) while the cell still holds NOOB.
func heapWord(v value.Value, k value.Kind) (uint64, error) {
	if k == value.Numbr {
		n, err := v.ToNumbr()
		return uint64(n), err
	}
	f, err := v.ToNumbar()
	return fw(f), err
}

// wordBin is w[B] op w[C] for the typed ops whose body can fail or is not
// one Go expression: QUOSHUNT, MOD, BIGGR and SMALLR OF. value's helpers
// keep results and error text single-sourced with value.Binary.
func wordBin(op Op, x, y uint64) (uint64, error) {
	bop, k := wordOpKind(op)
	if k == value.Numbr {
		a, b := int64(x), int64(y)
		var n int64
		var err error
		switch bop {
		case value.OpQuoshunt:
			n, err = value.RawQuoshuntNumbr(a, b)
		case value.OpMod:
			n, err = value.RawModNumbr(a, b)
		default:
			var v value.Value
			v, err = value.BinaryNumbr(bop, a, b)
			n = v.Numbr()
		}
		return uint64(n), err
	}
	a, b := wf(x), wf(y)
	var f float64
	var err error
	switch bop {
	case value.OpQuoshunt:
		f, err = value.RawQuoshuntNumbar(a, b)
	case value.OpMod:
		f, err = value.RawModNumbar(a, b)
	default:
		var v value.Value
		v, err = value.BinaryNumbar(bop, a, b)
		f = v.Numbar()
	}
	return fw(f), err
}

// The helpers below are the bodies of the dynamic binary and unary ops.
// Operands and destination are passed by pointer into the value stack,
// so no 48-byte value.Value is copied in or out, and the result is
// written in place (dst may alias an operand; every body reads its
// operands first). Operands that are numeric at run time take typed bodies; anything else
// goes to value.Binary or value.Unary. Division, modulo, UNSQUAR and FLIP
// go through value.Raw* and the rest through value.BinaryNumbr,
// BinaryNumbar or RawCmp*, so results and error text stay single-sourced
// with the generic path.

// numPair reports whether x and y are both numeric, and whether both are
// NUMBRs.
func numPair(x, y *value.Value) (numeric, ints bool) {
	xk, yk := x.Kind(), y.Kind()
	if xk == value.Numbr && yk == value.Numbr {
		return true, true
	}
	return (xk == value.Numbr || xk == value.Numbar) && (yk == value.Numbr || yk == value.Numbar), false
}

// toF reads a numeric operand as float64, widening a NUMBR.
func toF(v *value.Value) float64 {
	if v.Kind() == value.Numbr {
		return float64(v.Numbr())
	}
	return v.Numbar()
}

// binInto is *dst = Binary(op, *x, *y).
func binInto(dst *value.Value, op value.BinOp, x, y *value.Value) error {
	numeric, ints := numPair(x, y)
	if !numeric {
		return binGeneric(dst, op, x, y)
	}
	var v value.Value
	var err error
	if ints {
		a, b := x.Numbr(), y.Numbr()
		if addSubMul(op) {
			*dst = value.NewNumbr(intArith(op, a, b))
			return nil
		}
		if res, ok := value.RawCmpNumbr(op, a, b); ok {
			*dst = value.NewTroof(res)
			return nil
		}
		if !op.Arith() {
			return binGeneric(dst, op, x, y)
		}
		v, err = value.BinaryNumbr(op, a, b)
	} else {
		a, b := toF(x), toF(y)
		if addSubMul(op) {
			*dst = value.NewNumbar(floatArith(op, a, b))
			return nil
		}
		if res, ok := value.RawCmpNumbar(op, a, b); ok {
			*dst = value.NewTroof(res)
			return nil
		}
		if !op.Arith() {
			return binGeneric(dst, op, x, y)
		}
		v, err = value.BinaryNumbar(op, a, b)
	}
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// binGeneric is binInto's path for operands that are not both numeric,
// and for the logical operators.
func binGeneric(dst *value.Value, op value.BinOp, x, y *value.Value) error {
	v, err := value.Binary(op, *x, *y)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// unInto is *dst = Unary(op, *x).
func unInto(dst *value.Value, op value.UnOp, x *value.Value) error {
	var f float64
	switch x.Kind() {
	case value.Numbr:
		n := x.Numbr()
		if op == value.OpSquar {
			*dst = value.NewNumbr(n * n)
			return nil
		}
		f = float64(n)
	case value.Numbar:
		f = x.Numbar()
	default:
		return unGeneric(dst, op, x)
	}
	var err error
	switch op {
	case value.OpSquar:
		f *= f
	case value.OpUnsquar:
		f, err = value.RawUnsquar(f)
	case value.OpFlip:
		f, err = value.RawFlip(f)
	default:
		return unGeneric(dst, op, x)
	}
	if err != nil {
		return err
	}
	*dst = value.NewNumbar(f)
	return nil
}

// unGeneric is unInto's path for NOT and for non-numeric operands.
func unGeneric(dst *value.Value, op value.UnOp, x *value.Value) error {
	v, err := value.Unary(op, *x)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// addSubMul reports whether op is SUM, DIFF or PRODUKT OF, the operators
// whose typed body is one Go expression (value.BinOp lists them first).
func addSubMul(op value.BinOp) bool { return op <= value.OpProdukt }

// floatArith and intArith evaluate an addSubMul op.
func floatArith(op value.BinOp, a, b float64) float64 {
	switch op {
	case value.OpSum:
		return a + b
	case value.OpDiff:
		return a - b
	}
	return a * b
}

func intArith(op value.BinOp, a, b int64) int64 {
	switch op {
	case value.OpSum:
		return a + b
	case value.OpDiff:
		return a - b
	}
	return a * b
}
