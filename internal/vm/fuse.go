package vm

// The superinstruction pass, for dynamic code (typed code is already
// word ops, which no pattern matches). The bytecode compiler emits
// dynamic expressions in a handful of fixed shapes — slot load + constant + binary op, loop heads
// of the form load/load/compare/branch, binary op straight into a slot
// store — and the dispatch loop pays per-instruction overhead (meter
// check, switch, stack traffic) for each piece. fuseChunk runs after a
// chunk is sealed and rewrites those shapes into single fused opcodes
// with all immediates baked in, cutting both dispatch count and
// value-stack push/pop pairs on the hot arithmetic paths.
//
// Safety rules, by construction:
//
//   - A pattern never fuses across a jump target: interior instructions
//     of a match must not be targeted by any jump, or a branch landing
//     mid-pattern would skip the fused prefix. The FIRST instruction of a
//     pattern may be a target (that is the common loop-head case).
//   - Patterns contain only straight-line value ops (loads, constants,
//     binary ops, slot stores) and the branch that terminates them — never
//     OpPredPush/OpPredPop, so fusion cannot cross a TXT MAH BFF
//     predication boundary, and never the Keep-variant short-circuit
//     jumps, whose stack discipline differs mid-expression.
//   - Each fused instruction weighs the sum of the weights of the
//     instructions it replaced, so backend.Meter accounting is preserved: a step budget of N still permits exactly N
//     pre-fusion instructions. The one observable difference is kill
//     *placement*: a budget kill that lands inside a fused block executes
//     none of it, where the unfused program may have executed a partial
//     prefix before dying.
//     For these patterns the prefix has no output effect, so kill/no-kill
//     outcomes and all produced output are identical; only a runtime
//     error coinciding with the last weight-1 steps of the budget could
//     classify differently (budget vs. runtime error), which the
//     conformance harness treats as out of scope for budget-killed runs.
//   - A fused op that absorbs an OpBinary takes its position. The binary is the only part of any shape that can
//     fail: loads, constants, jumps and slot stores cannot, and neither
//     can a SRSLY cast of the NUMBR, NUMBAR or TROOF a binary yields. So
//     a fused op fails where interp and compile do, at the operator. (An
//     element load and a binary fail at different positions, so no shape
//     holds both.)
//
// After rewriting, every surviving jump target is remapped through the
// old-index → new-index table; fused and word branches keep their target
// in D so remapping never confuses a slot/const immediate in A with a
// code index.

// fuseChunk rewrites c.Code in place with superinstructions.
func fuseChunk(c *Chunk) {
	code := c.Code
	if len(code) == 0 {
		return
	}
	// Jump targets, pre-fusion. patch() can resolve a jump to len(code)
	// (fall off the end of a construct at the chunk tail), so the table is
	// one wider than the code.
	isTarget := make([]bool, len(code)+1)
	for i := range code {
		if t, ok := jumpTarget(&code[i]); ok {
			isTarget[*t] = true
		}
	}

	out := make([]Instr, 0, len(code))
	remap := make([]int, len(code)+1)
	for i := 0; i < len(code); {
		n, fused := matchFusion(code, i, isTarget)
		for k := 0; k < n; k++ {
			remap[i+k] = len(out)
		}
		if n > 1 {
			for _, in := range code[i : i+n] {
				fused.W += in.W
			}
			out = append(out, fused)
		} else {
			out = append(out, code[i])
		}
		i += n
	}
	remap[len(code)] = len(out)

	for i := range out {
		if t, ok := jumpTarget(&out[i]); ok {
			*t = remap[*t]
		}
	}
	c.Code = out
}

// jumpTarget returns the field of in holding its jump target: A for the
// plain jumps, D for the fused and word branches.
func jumpTarget(in *Instr) (*int, bool) {
	switch in.Op {
	case OpJump, OpJumpFalse, OpJumpTrue, OpJumpFalseKeep, OpJumpTrueKeep:
		return &in.A, true
	case OpFusedSlotJump, OpFusedSlotConstCmpJump, OpFusedSlotSlotCmpJump, OpFusedIncSlotJump, OpWIncJump,
		OpWJumpBiggerI, OpWJumpSmallrI, OpWJumpBothSaemI, OpWJumpDiffrintI,
		OpWJumpBiggerF, OpWJumpSmallrF, OpWJumpBothSaemF, OpWJumpDiffrintF:
		return &in.D, true
	}
	return nil, false
}

// jumpSense maps the two pop-variant conditional jumps to the branch-sense
// bit a fused jump packs into B; -1 for anything else (including the Keep
// variants, which never fuse).
func jumpSense(op Op) int {
	switch op {
	case OpJumpFalse:
		return 0
	case OpJumpTrue:
		return fuseJumpOnTrue
	}
	return -1
}

// matchFusion tries the patterns starting at code[i], longest first, and
// returns the number of instructions consumed plus the replacement
// (meaningful only when n > 1; fuseChunk sums its weight). Interior
// instructions of a candidate must not be jump targets.
func matchFusion(code []Instr, i int, isTarget []bool) (int, Instr) {
	clear := func(n int) bool {
		if i+n > len(code) {
			return false
		}
		for k := 1; k < n; k++ {
			if isTarget[i+k] {
				return false
			}
		}
		return true
	}
	in0 := &code[i]
	switch in0.Op {
	case OpLoadSlot:
		if clear(4) {
			i1, i2, i3 := &code[i+1], &code[i+2], &code[i+3]
			if i2.Op == OpBinary {
				if s := jumpSense(i3.Op); s >= 0 {
					// The canonical loop head: slot ⊕ const (or slot ⊕ slot),
					// branch on the comparison.
					if i1.Op == OpConst {
						return 4, Instr{Op: OpFusedSlotConstCmpJump, A: in0.A, B: i2.A | s, C: i1.A, D: i3.A, Pos: i2.Pos}
					}
					if i1.Op == OpLoadSlot {
						return 4, Instr{Op: OpFusedSlotSlotCmpJump, A: in0.A, B: i2.A | s, C: i1.A, D: i3.A, Pos: i2.Pos}
					}
				}
				// Whole statements of the form `dst R x ⊕ y` with slot/const
				// operands: no value-stack traffic at all.
				if i3.Op == OpStoreSlot {
					if i1.Op == OpConst {
						return 4, Instr{Op: OpFusedSlotConstBinaryStore, A: in0.A, B: i2.A, C: i1.A, D: i3.A, Pos: i2.Pos}
					}
					if i1.Op == OpLoadSlot {
						return 4, Instr{Op: OpFusedSlotSlotBinaryStore, A: in0.A, B: i2.A, C: i1.A, D: i3.A, Pos: i2.Pos}
					}
				}
				if i3.Op == OpStoreSlotCast {
					if i1.Op == OpConst {
						return 4, Instr{Op: OpFusedSlotConstBinaryStoreCast, A: in0.A, B: i2.A | i3.B<<fuseKindShift, C: i1.A, D: i3.A, S: i3.S, Pos: i2.Pos}
					}
					if i1.Op == OpLoadSlot {
						return 4, Instr{Op: OpFusedSlotSlotBinaryStoreCast, A: in0.A, B: i2.A | i3.B<<fuseKindShift, C: i1.A, D: i3.A, S: i3.S, Pos: i2.Pos}
					}
				}
			}
		}
		if clear(3) {
			i1, i2 := &code[i+1], &code[i+2]
			if i2.Op == OpBinary {
				if i1.Op == OpConst {
					return 3, Instr{Op: OpFusedSlotConstBinary, A: in0.A, B: i2.A, C: i1.A, Pos: i2.Pos}
				}
				if i1.Op == OpLoadSlot {
					return 3, Instr{Op: OpFusedSlotSlotBinary, A: in0.A, B: i2.A, C: i1.A, Pos: i2.Pos}
				}
			}
		}
		if clear(2) {
			i1 := &code[i+1]
			if i1.Op == OpBinary {
				return 2, Instr{Op: OpFusedSlotBinary, A: in0.A, B: i1.A, Pos: i1.Pos}
			}
			if s := jumpSense(i1.Op); s >= 0 {
				// O RLY? and friends: load IT (or any slot), branch on it.
				return 2, Instr{Op: OpFusedSlotJump, A: in0.A, B: s, D: i1.A, Pos: in0.Pos}
			}
		}
	case OpConst:
		if clear(2) && code[i+1].Op == OpBinary {
			i1 := &code[i+1]
			return 2, Instr{Op: OpFusedConstBinary, A: in0.A, B: i1.A, Pos: i1.Pos}
		}
	case OpBinary:
		if clear(2) {
			i1 := &code[i+1]
			if i1.Op == OpStoreSlot {
				return 2, Instr{Op: OpFusedBinaryStoreSlot, A: i1.A, B: in0.A, Pos: in0.Pos}
			}
			if i1.Op == OpStoreSlotCast {
				return 2, Instr{Op: OpFusedBinaryStoreSlotCast, A: i1.A, B: in0.A, C: i1.B, S: i1.S, Pos: in0.Pos}
			}
		}
	case OpIncSlot:
		// The loop back-edge: bump the counter and jump to the head.
		if clear(2) && code[i+1].Op == OpJump {
			return 2, Instr{Op: OpFusedIncSlotJump, A: in0.A, B: in0.B, D: code[i+1].A, S: in0.S, Pos: in0.Pos}
		}
	}
	return 1, Instr{}
}
