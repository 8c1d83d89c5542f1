package vm

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Disassemble renders a compiled program as a readable listing, one chunk
// per section, for `lolrun -dump-bytecode` and the golden test that pins
// the compiler's output. Word ops print as three-address code with the
// operator's kind, e.g. "w7 = w1 SUM OF:f w6"; a word constant prints
// with its kind and value, e.g. "w9<NUMBR 1>". Every instruction whose
// weight is above 1 prints it, so metering is auditable from the listing
// alone.
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
	fmt.Fprintf(b, "== %s (code=%d consts=%d slots=%d words=%d params=%d)\n",
		c.Name, len(c.Code), len(c.Consts), c.NSlots, c.NWords, c.Params)
	for i := range c.Code {
		in := &c.Code[i]
		line := fmt.Sprintf("%4d  %-28s %s", i, in.Op.String(), disasmOperands(c, in))
		if in.W > 1 {
			line += fmt.Sprintf(" ; w=%d", in.W)
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

// wordStr renders word i, with a constant's kind and value (a NUMBAR
// in full, where VISIBLE would round it to two places).
func wordStr(c *Chunk, i int) string {
	switch c.wkind[i] {
	case value.Numbr:
		return fmt.Sprintf("w%d<NUMBR %d>", i, int64(c.Words[i]))
	case value.Numbar:
		return fmt.Sprintf("w%d<NUMBAR %g>", i, wf(c.Words[i]))
	}
	return fmt.Sprintf("w%d", i)
}

// kindMark is the ":i" or ":f" an operator of kind k prints with.
func kindMark(k value.Kind) string {
	if k == value.Numbar {
		return ":f"
	}
	return ":i"
}

func disasmOperands(c *Chunk, in *Instr) string {
	name := func() string {
		if in.S == "" {
			return ""
		}
		return " (" + in.S + ")"
	}
	w := func(i int) string { return wordStr(c, i) }
	switch op := in.Op; {
	case op >= OpWSumI && op <= OpWDiffrintF:
		bop, k := wordOpKind(op)
		if bop >= value.OpBigger {
			return fmt.Sprintf("push %s %s%s %s", w(in.B), bop, kindMark(k), w(in.C))
		}
		return fmt.Sprintf("w%d = %s %s%s %s", in.A, w(in.B), bop, kindMark(k), w(in.C))
	case op >= OpWJumpBiggerI && op <= OpWJumpDiffrintF:
		bop, k := wordOpKind(op)
		sense := "if-false"
		if in.A != 0 {
			sense = "if-true"
		}
		return fmt.Sprintf("%s %s%s %s %s -> %d", w(in.B), bop, kindMark(k), w(in.C), sense, in.D)
	case op == OpWJumpIT:
		bop, k := wordOpKind(Op(in.A))
		return fmt.Sprintf("IT = %s %s%s %s if-false -> %d", w(in.B), bop, kindMark(k), w(in.C), in.D)
	case op >= OpWSquarI && op <= OpWFlipF:
		k := value.Numbr
		if (op-OpWSquarI)%2 == 1 {
			k = value.Numbar
		}
		return fmt.Sprintf("w%d = %s%s %s", in.A, value.UnOp(1+(op-OpWSquarI)/2), kindMark(k), w(in.B))
	}
	switch in.Op {
	case OpWMove:
		return fmt.Sprintf("w%d = %s", in.A, w(in.B))
	case OpWWiden:
		return fmt.Sprintf("w%d = NUMBAR %s", in.A, w(in.B))
	case OpWTrunc:
		return fmt.Sprintf("w%d = NUMBR %s", in.A, w(in.B))
	case OpWIncJump:
		return fmt.Sprintf("w%d %+d -> %d%s", in.A, in.B, in.D, name())
	case OpWBoxI, OpWBoxF:
		return w(in.A)
	case OpWElemSlotI, OpWElemSlotF:
		return fmt.Sprintf("w%d = s%d[%s]%s", in.A, in.C, w(in.B), name())
	case OpWElemHeapI, OpWElemHeapF:
		s := fmt.Sprintf("w%d = h%d[%s]", in.A, in.C, w(in.B))
		if in.D&flagRemote != 0 {
			s += " ur"
		}
		return s
	case OpWLoadHeapI, OpWLoadHeapF:
		s := fmt.Sprintf("w%d = h%d", in.A, in.B)
		if in.C&flagRemote != 0 {
			s += " ur"
		}
		return s
	case OpWMe, OpWMahFrenz, OpWWhatevr, OpWWhatevar:
		return fmt.Sprintf("w%d", in.A)
	case OpWIndex:
		return fmt.Sprintf("w%d = pop", in.A)
	case OpWCast, OpWStoreCast, OpWUnbox:
		return fmt.Sprintf("w%d = pop as %s%s", in.A, value.Kind(in.B), name())

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
		if in.B&flagRemote != 0 {
			s += " ur"
		}
		return s + name()
	case OpBinary:
		return value.BinOp(in.A).String()
	case OpUnary:
		return value.UnOp(in.A).String()
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
	}
	return ""
}
