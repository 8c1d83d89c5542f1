package vm

import (
	"fmt"

	"repro/internal/sema"
	"repro/internal/token"
	"repro/internal/value"
)

// Op is a bytecode operation. The VM is a value-stack machine: operands
// named in the comments are popped from (and results pushed onto) the
// evaluation stack; A, B, C and D are immediate operands baked into the
// instruction at compile time.
//
// The enum is laid out deliberately: the hot arithmetic/control cluster —
// the plain ops the compiler emits in loop bodies plus every fused
// superinstruction — occupies the dense low range so the dispatch
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

	// --- fused superinstructions (see fuse.go). Each replaces a fixed
	// sequence the compiler emits and carries that sequence's step count
	// as its static weight, so backend.Meter accounting is identical to
	// the unfused program. B packs the BinOp in its low bits; fused jumps
	// add the fuseJumpOnTrue bit and carry their target in D.
	OpFusedConstBinary         // tos = Binary(B, tos, Consts[A]); w=2
	OpFusedSlotBinary          // tos = Binary(B, tos, slots[A]); w=2
	OpFusedSlotConstBinary     // push Binary(B, slots[A], Consts[C]); w=3
	OpFusedSlotSlotBinary      // push Binary(B, slots[A], slots[C]); w=3
	OpFusedBinaryStoreSlot     // y=pop, x=pop; slots[A] = Binary(B, x, y); w=2
	OpFusedBinaryStoreSlotCast // y=pop, x=pop; slots[A] = cast(Binary(B, x, y), Kind(C)); S names the SRSLY var; w=2
	OpFusedSlotJump            // jump to D when slots[A] truthiness matches B's sense; w=2
	OpFusedSlotConstCmpJump    // jump to D when Binary(B, slots[A], Consts[C]) truthiness matches B's sense; w=4
	OpFusedSlotSlotCmpJump     // jump to D when Binary(B, slots[A], slots[C]) truthiness matches B's sense; w=4
	OpFusedIncSlotJump         // slots[A] = NUMBR(slots[A]) + B; ip = D (loop back-edge); w=2

	// Whole-statement fusions: a two-operand expression assigned straight
	// to a slot, with no value-stack traffic at all. D is the destination
	// slot; the Cast variants pack the SRSLY kind into B above the BinOp.
	OpFusedSlotConstBinaryStore     // slots[D] = Binary(B, slots[A], Consts[C]); w=4
	OpFusedSlotConstBinaryStoreCast // slots[D] = cast(Binary(B, slots[A], Consts[C])); w=4
	OpFusedSlotSlotBinaryStore      // slots[D] = Binary(B, slots[A], slots[C]); w=4
	OpFusedSlotSlotBinaryStoreCast  // slots[D] = cast(Binary(B, slots[A], slots[C])); w=4

	// --- the rest of the frame/stack ops
	OpPop           // drop the top of stack
	OpDup           // duplicate the top of stack
	OpStoreSlotCast // slots[A] = cast(pop, Kind(B)); S names the SRSLY var
	OpStoreSlotArr  // array-aware store into slots[A]: copy into an existing array
	OpLoadElemSlot  // i=pop; push slots[A][i]; S names the array
	OpStoreElemSlot // i=pop, v=pop; slots[A][i] = v; S names the array
	OpJumpFalseKeep // peek; jump when not truthy, keeping the value (short-circuit)
	OpJumpTrueKeep  // peek; jump when truthy, keeping the value (short-circuit)

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
	OpSrsLoad  // name=pop; resolve in the frame scope and read
	OpSrsStore // name=pop, v=pop; resolve and write

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

	OpFusedConstBinary:         "fuse.const.binary",
	OpFusedSlotBinary:          "fuse.slot.binary",
	OpFusedSlotConstBinary:     "fuse.slot.const.binary",
	OpFusedSlotSlotBinary:      "fuse.slot.slot.binary",
	OpFusedBinaryStoreSlot:     "fuse.binary.store.slot",
	OpFusedBinaryStoreSlotCast: "fuse.binary.store.slot.cast",
	OpFusedSlotJump:            "fuse.slot.jump",
	OpFusedSlotConstCmpJump:    "fuse.slot.const.cmp.jump",
	OpFusedSlotSlotCmpJump:     "fuse.slot.slot.cmp.jump",
	OpFusedIncSlotJump:         "fuse.inc.slot.jump",

	OpFusedSlotConstBinaryStore:     "fuse.slot.const.binary.store",
	OpFusedSlotConstBinaryStoreCast: "fuse.slot.const.binary.store.cast",
	OpFusedSlotSlotBinaryStore:      "fuse.slot.slot.binary.store",
	OpFusedSlotSlotBinaryStoreCast:  "fuse.slot.slot.binary.store.cast",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// opWeights is the static step weight of every opcode: 1 for plain
// instructions, the replaced sequence's instruction count for fused
// superinstructions. The dispatch loop meters StepN(opWeights[op]) per
// instruction, so a step budget counts pre-fusion instructions exactly.
var opWeights [256]int64

func init() {
	for i := range opWeights {
		opWeights[i] = 1
	}
	opWeights[OpFusedConstBinary] = 2
	opWeights[OpFusedSlotBinary] = 2
	opWeights[OpFusedSlotConstBinary] = 3
	opWeights[OpFusedSlotSlotBinary] = 3
	opWeights[OpFusedBinaryStoreSlot] = 2
	opWeights[OpFusedBinaryStoreSlotCast] = 2
	opWeights[OpFusedSlotJump] = 2
	opWeights[OpFusedSlotConstCmpJump] = 4
	opWeights[OpFusedSlotSlotCmpJump] = 4
	opWeights[OpFusedIncSlotJump] = 2
	opWeights[OpFusedSlotConstBinaryStore] = 4
	opWeights[OpFusedSlotConstBinaryStoreCast] = 4
	opWeights[OpFusedSlotSlotBinaryStore] = 4
	opWeights[OpFusedSlotSlotBinaryStoreCast] = 4
}

// Weight is the opcode's static step weight: the number of pre-fusion
// instructions one executed instance accounts for against the step
// budget. Plain opcodes weigh 1.
func (op Op) Weight() int64 { return opWeights[op] }

// Fused reports whether the opcode is a superinstruction produced by the
// fusion pass (weight > 1).
func (op Op) Fused() bool { return opWeights[op] > 1 }

// OpVisible B flags.
const (
	visNoNewline = 1 << iota
	visStderr
)

// flagRemote in B marks a heap access as addressing the predication target
// (a UR reference) instead of the local PE.
const flagRemote = 1

// Fused instructions pack the expression's BinOp into B's low bits.
// Fused jumps add fuseJumpOnTrue to select the branch sense (set = the
// fused OpJumpTrue shape, clear = OpJumpFalse); fused store-casts pack
// the declared SRSLY kind above fuseKindShift.
const (
	fuseOpMask     = 0xff
	fuseJumpOnTrue = 1 << 8
	fuseKindShift  = 9
)

// Instr is one decoded instruction. The VM trades the byte-packed encoding
// of a production VM for direct struct access: no operand decoding on the
// hot path, and every instruction carries its source position for errors.
// D is the jump target of fused compare-and-branch superinstructions,
// kept separate from A so slot/const operands never alias a target during
// fusion's index remapping. Class sits in the padding after Op, so it
// costs no space.
type Instr struct {
	Op         Op
	Class      Class // static operand class of a numeric operation; 0 = dynamic
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
// function. NSlots is the frame size computed by sema's slot resolution;
// Scope is retained only for the dynamic name lookups SRS and :{var}
// interpolation need at runtime.
type Chunk struct {
	Name   string
	Code   []Instr
	Consts []value.Value
	NSlots int
	Params int
	Scope  *sema.Scope
}

// Class is the static operand class the compiler stamps on a numeric
// operation from sema's StaticKind facts (see compiler.go). It promises
// the operands' kinds, so the VM reads their raw payloads with no Kind()
// dispatch:
//
//   - classInt: a NUMBR × NUMBR binary op, a unary op on a NUMBR, or a
//     shared scalar load that must yield a NUMBR;
//   - classFloat: float arithmetic, with widenX and widenY marking the
//     operands that are NUMBRs and widen to float64, exactly as
//     value.Binary widens mixed operands. A unary op or a shared scalar
//     load of class classFloat has a NUMBAR operand.
//
// Zero is dynamic: the operation dispatches on its operands' runtime
// kinds, through the same typed bodies when both turn out numeric.
type Class uint8

const (
	classInt Class = 1 << iota
	classFloat
	widenX
	widenY
)

// String is the class mark Disassemble prints: "i", "f", or for a widened
// float op the operand kinds, "if" (NUMBR x) or "fi" (NUMBR y).
func (cl Class) String() string {
	switch {
	case cl == 0:
		return ""
	case cl == classInt:
		return "i"
	case cl&widenX != 0:
		return "if"
	case cl&widenY != 0:
		return "fi"
	}
	return "f"
}

// kindClass is the class of an operand of static kind k.
func kindClass(k value.Kind) Class {
	if k == value.Numbar {
		return classFloat
	}
	return classInt
}

// pairClass is the class of a binary op whose operands have kinds xk and
// yk, or 0 when either is not a NUMBR or NUMBAR.
func pairClass(xk, yk value.Kind) Class {
	switch {
	case xk == value.Numbr && yk == value.Numbr:
		return classInt
	case xk == value.Numbar && yk == value.Numbar:
		return classFloat
	case xk == value.Numbr && yk == value.Numbar:
		return classFloat | widenX
	case xk == value.Numbar && yk == value.Numbr:
		return classFloat | widenY
	}
	return 0
}

// fx and fy read a float-class operand: the NUMBAR payload, or the NUMBR
// widened to float64 when its widen bit is set.
func (cl Class) fx(x *value.Value) float64 {
	if cl&widenX != 0 {
		return float64(x.Numbr())
	}
	return x.Numbar()
}

func (cl Class) fy(y *value.Value) float64 {
	if cl&widenY != 0 {
		return float64(y.Numbr())
	}
	return y.Numbar()
}

// The operation helpers below are shared by the plain and the fused
// opcodes. Operands and destination are passed by pointer — into the
// value stack, the slot array or the constant pool — so no 48-byte
// value.Value is copied in or out, and the result is written in place
// (dst may alias an operand; every body reads its operands first). A
// typed class takes its typed body straight away. Class 0 derives the
// class from the operands' runtime kinds and, when both are numeric,
// takes the same typed body; anything else goes to value.Binary or
// value.Unary. Division, modulo, UNSQUAR and FLIP go through value.Raw*
// and the rest through value.BinaryNumbr, BinaryNumbar or RawCmp*, so
// results and error text stay single-sourced with the generic path.

// binInto is *dst = Binary(op, *x, *y).
func binInto(dst *value.Value, op value.BinOp, cl Class, x, y *value.Value) error {
	if cl == 0 {
		if cl = pairClass(x.Kind(), y.Kind()); cl == 0 {
			return binGeneric(dst, op, x, y)
		}
	}
	var v value.Value
	var err error
	if cl == classInt {
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
		a, b := cl.fx(x), cl.fy(y)
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

// binCast is a binary op stored into a SRSLY private of type k:
// *dst = Cast(Binary(op, *x, *y), k).
func binCast(dst *value.Value, op value.BinOp, cl Class, x, y *value.Value, k value.Kind, name string) error {
	var v value.Value
	if err := binInto(&v, op, cl, x, y); err != nil {
		return err
	}
	if v.Kind() != k {
		cv, err := value.Cast(v, k)
		if err != nil {
			return fmt.Errorf("assigning to SRSLY %s %s: %w", k, name, err)
		}
		v = cv
	}
	*dst = v
	return nil
}

// convert makes a shared SRSLY scalar read, v, the kind its class
// promises: a no-op once the owner's WE HAS A has run, a conversion (or
// its error) while the cell still holds NOOB.
func convert(v value.Value, cl Class) (value.Value, error) {
	if cl == classInt {
		if v.Kind() == value.Numbr {
			return v, nil
		}
		n, err := v.ToNumbr()
		return value.NewNumbr(n), err
	}
	if v.Kind() == value.Numbar {
		return v, nil
	}
	f, err := v.ToNumbar()
	return value.NewNumbar(f), err
}

// unInto is *dst = Unary(op, *x).
func unInto(dst *value.Value, op value.UnOp, cl Class, x *value.Value) error {
	if cl == 0 {
		switch x.Kind() {
		case value.Numbr:
			cl = classInt
		case value.Numbar:
			cl = classFloat
		default:
			return unGeneric(dst, op, x)
		}
	}
	var f float64
	if cl == classInt {
		n := x.Numbr()
		if op == value.OpSquar {
			*dst = value.NewNumbr(n * n)
			return nil
		}
		f = float64(n)
	} else {
		f = x.Numbar()
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

// truthBin is Binary(op, *x, *y).ToTroof() for a fused compare-and-branch:
// a numeric comparison never builds the intermediate TROOF.
func truthBin(op value.BinOp, cl Class, x, y *value.Value) (bool, error) {
	if cl == 0 {
		cl = pairClass(x.Kind(), y.Kind())
	}
	switch {
	case cl == classInt:
		if res, ok := value.RawCmpNumbr(op, x.Numbr(), y.Numbr()); ok {
			return res, nil
		}
	case cl != 0:
		if res, ok := value.RawCmpNumbar(op, cl.fx(x), cl.fy(y)); ok {
			return res, nil
		}
	}
	var v value.Value
	if err := binInto(&v, op, cl, x, y); err != nil {
		return false, err
	}
	return v.ToTroof(), nil
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
