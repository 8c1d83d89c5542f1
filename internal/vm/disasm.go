package vm

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Disassemble renders a compiled program as a readable listing, one chunk
// per section, for `lolrun -dump-bytecode` and the golden tests that pin
// the fusion pass's output. Fused superinstructions print their step
// weight so metering is auditable from the listing alone, and typed
// operations their class: "SUM OF:f", "BOTH SAEM:i", "load.heap h0:i".
func Disassemble(p *Program) string {
	var b strings.Builder
	disasmChunk(&b, p.Main)
	for _, c := range p.Funcs {
		b.WriteByte('\n')
		disasmChunk(&b, c)
	}
	return b.String()
}

func disasmChunk(b *strings.Builder, c *Chunk) {
	fmt.Fprintf(b, "== %s (code=%d consts=%d slots=%d params=%d)\n",
		c.Name, len(c.Code), len(c.Consts), c.NSlots, c.Params)
	for i := range c.Code {
		in := &c.Code[i]
		line := fmt.Sprintf("%4d  %-28s %s", i, in.Op.String(), disasmOperands(c, in))
		if w := in.Op.Weight(); w > 1 {
			line += fmt.Sprintf(" ; w=%d", w)
		}
		b.WriteString(strings.TrimRight(line, " "))
		b.WriteByte('\n')
	}
}

// konstStr renders a constant-pool entry with its kind, so e.g. NUMBR 1
// and NUMBAR 1.0 stay distinguishable in listings.
func konstStr(c *Chunk, i int) string {
	v := c.Consts[i]
	return fmt.Sprintf("c%d<%s %s>", i, v.Kind(), v.Display())
}

// binOpStr renders a binary op with its class mark, e.g. "SUM OF:f".
func binOpStr(b int, cl Class) string { return value.BinOp(b&fuseOpMask).String() + classMark(cl) }

// classMark is ":" and the class of a typed op, or "" for a dynamic one.
func classMark(cl Class) string {
	if cl == 0 {
		return ""
	}
	return ":" + cl.String()
}

// senseStr renders a fused branch's sense: the pop-jump it replaced.
func senseStr(b int) string {
	if b&fuseJumpOnTrue != 0 {
		return "if-true"
	}
	return "if-false"
}

func disasmOperands(c *Chunk, in *Instr) string {
	name := func() string {
		if in.S == "" {
			return ""
		}
		return " (" + in.S + ")"
	}
	switch in.Op {
	case OpConst:
		return konstStr(c, in.A)
	case OpLoadSlot, OpStoreSlot, OpStoreSlotArr, OpIncSlot:
		s := fmt.Sprintf("s%d", in.A)
		if in.Op == OpIncSlot {
			s += fmt.Sprintf(" %+d", in.B)
		}
		return s + name()
	case OpStoreSlotCast:
		return fmt.Sprintf("s%d as %s%s", in.A, value.Kind(in.B), name())
	case OpLoadElemSlot, OpStoreElemSlot, OpDeclArrSlot:
		return fmt.Sprintf("s%d%s", in.A, name())
	case OpLoadHeap, OpLoadHeapArr, OpStoreHeap, OpStoreHeapArr,
		OpLoadElem, OpStoreElem, OpDeclArrHeap, OpInitHeap:
		s := fmt.Sprintf("h%d", in.A)
		if in.Op == OpLoadHeap {
			s += classMark(in.Class)
		}
		if in.B&flagRemote != 0 {
			s += " ur"
		}
		return s + name()
	case OpBinary:
		return binOpStr(in.A, in.Class)
	case OpUnary:
		return value.UnOp(in.A).String() + classMark(in.Class)
	case OpCast:
		return value.Kind(in.A).String() + name()
	case OpConcat, OpSmoosh, OpVisible, OpPredPop:
		return fmt.Sprintf("n=%d", in.A)
	case OpJump, OpJumpFalse, OpJumpTrue, OpJumpFalseKeep, OpJumpTrueKeep:
		return fmt.Sprintf("-> %d", in.A)
	case OpLockAcquire, OpLockTry, OpLockRelease:
		return fmt.Sprintf("lock%d", in.A)
	case OpSrsLoad, OpSrsStore:
		return fmt.Sprintf("space=%d", in.B)
	case OpCall:
		return fmt.Sprintf("f%d args=%d%s", in.A, in.B, name())

	case OpFusedConstBinary:
		return fmt.Sprintf("tos %s %s", binOpStr(in.B, in.Class), konstStr(c, in.A))
	case OpFusedSlotBinary:
		return fmt.Sprintf("tos %s s%d", binOpStr(in.B, in.Class), in.A)
	case OpFusedSlotConstBinary:
		return fmt.Sprintf("s%d %s %s", in.A, binOpStr(in.B, in.Class), konstStr(c, in.C))
	case OpFusedSlotSlotBinary:
		return fmt.Sprintf("s%d %s s%d", in.A, binOpStr(in.B, in.Class), in.C)
	case OpFusedBinaryStoreSlot:
		return fmt.Sprintf("s%d = %s", in.A, binOpStr(in.B, in.Class))
	case OpFusedBinaryStoreSlotCast:
		return fmt.Sprintf("s%d = %s as %s%s", in.A, binOpStr(in.B, in.Class), value.Kind(in.C), name())
	case OpFusedSlotJump:
		return fmt.Sprintf("s%d %s -> %d", in.A, senseStr(in.B), in.D)
	case OpFusedSlotConstCmpJump:
		return fmt.Sprintf("s%d %s %s %s -> %d", in.A, binOpStr(in.B, in.Class), konstStr(c, in.C), senseStr(in.B), in.D)
	case OpFusedSlotSlotCmpJump:
		return fmt.Sprintf("s%d %s s%d %s -> %d", in.A, binOpStr(in.B, in.Class), in.C, senseStr(in.B), in.D)
	case OpFusedIncSlotJump:
		return fmt.Sprintf("s%d %+d -> %d%s", in.A, in.B, in.D, name())
	case OpFusedSlotConstBinaryStore:
		return fmt.Sprintf("s%d = s%d %s %s", in.D, in.A, binOpStr(in.B, in.Class), konstStr(c, in.C))
	case OpFusedSlotConstBinaryStoreCast:
		return fmt.Sprintf("s%d = s%d %s %s as %s%s", in.D, in.A, binOpStr(in.B, in.Class), konstStr(c, in.C), value.Kind(in.B>>fuseKindShift), name())
	case OpFusedSlotSlotBinaryStore:
		return fmt.Sprintf("s%d = s%d %s s%d", in.D, in.A, binOpStr(in.B, in.Class), in.C)
	case OpFusedSlotSlotBinaryStoreCast:
		return fmt.Sprintf("s%d = s%d %s s%d as %s%s", in.D, in.A, binOpStr(in.B, in.Class), in.C, value.Kind(in.B>>fuseKindShift), name())
	}
	return ""
}
