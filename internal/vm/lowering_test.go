package vm_test

// This test pins the word lowering of the paper's kernels. It lives in
// an external test package because internal/experiments, which
// generates the kernels, imports the vm through internal/core.

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sema"
	"repro/internal/vm"
)

// innermostLoops returns the [head, back-edge] index ranges of the
// chunk's loops that contain no other loop. A loop is a back-edge: a
// jump to an instruction at or before it.
func innermostLoops(code []vm.Instr) [][2]int {
	var loops [][2]int
	for i, in := range code {
		t := -1
		switch in.Op {
		case vm.OpWIncJump:
			t = in.D
		case vm.OpJump:
			t = in.A
		}
		if t >= 0 && t <= i {
			loops = append(loops, [2]int{t, i})
		}
	}
	var inner [][2]int
	for _, l := range loops {
		nested := false
		for _, m := range loops {
			nested = nested || m != l && m[0] >= l[0] && m[1] <= l[1]
		}
		if !nested {
			inner = append(inner, l)
		}
	}
	return inner
}

// TestKernelsLowerToWordOps requires every innermost loop of the three
// kernels programs to run on word ops: no stack arithmetic (binary,
// unary) and no slot load of a word symbol. Apart from word ops and
// jumps, a loop may hold only what consumes a value dynamically by
// design: TXT MAH BFF's push and pop, and the element stores that write
// results back to arrays, whose values and subscripts word ops box. The
// hot loops that do the arithmetic must hold nothing but word ops, jumps
// and predication. Every O RLY? of the kernels tests a typed comparison,
// so each must be one IT branch, and IT must never pass through the
// stack: no store.slot s0 or load.slot s0 between a comparison and its
// branch, or anywhere else.
func TestKernelsLowerToWordOps(t *testing.T) {
	kernels := map[string]string{
		"montecarlo": experiments.GenMonteCarlo(60, 2),
		"nbody":      experiments.GenNBody(4, 1),
		"arith":      experiments.GenArithLoop(100),
	}
	for name, src := range kernels {
		p := compileKernel(t, src)
		scope := p.Main.Scope
		code := p.Main.Code
		loops := innermostLoops(code)
		pure := 0
		for _, l := range loops {
			dynamic := 0
			for i := l[0]; i <= l[1]; i++ {
				in := code[i]
				switch {
				case in.Op.Word(), in.Op == vm.OpJump, in.Op == vm.OpPredPush, in.Op == vm.OpPredPop:
				case in.Op == vm.OpStoreElem, in.Op == vm.OpStoreElemSlot:
					dynamic++
				case in.Op == vm.OpLoadSlot && isWordSym(scope.Order[in.A]):
					t.Errorf("%s: %d: %v loads word symbol %s", name, i, in.Op, scope.Order[in.A].Name)
				default:
					t.Errorf("%s: %d: %v in the innermost loop %d-%d", name, i, in.Op, l[0], l[1])
				}
			}
			if dynamic == 0 {
				pure++
			}
		}
		if pure == 0 {
			t.Errorf("%s: no innermost loop of only word ops among %v\n%s", name, loops, vm.Disassemble(p))
		}
		itBranches := 0
		for i, in := range code {
			switch {
			case in.Op == vm.OpWJumpIT:
				itBranches++
			case (in.Op == vm.OpStoreSlot || in.Op == vm.OpLoadSlot) && in.A == 0:
				t.Errorf("%s: %d: %v moves IT through the stack", name, i, in.Op)
			}
		}
		if orly := strings.Count(src, "O RLY?"); itBranches != orly {
			t.Errorf("%s: %d IT branches for %d O RLY?s\n%s", name, itBranches, orly, vm.Disassemble(p))
		}
	}
}

// isWordSym mirrors the VM's word-symbol rule from sema's facts.
func isWordSym(sym *sema.Symbol) bool {
	return sym.Kind != sema.SymShared && !sym.IsArray && sym.Rep != sema.RepBoxed
}
