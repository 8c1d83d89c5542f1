package vm_test

// The step-budget invariant tests live outside package vm so they can use
// the E1 kernel generators (internal/experiments imports internal/core,
// which imports internal/vm).

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/experiments"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/vm"
)

func compileKernel(t *testing.T, src string) *vm.Program {
	t.Helper()
	tree, err := parser.Parse("kernel.lol", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(tree)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	p, err := vm.Compile(info)
	if err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	return p
}

func runBudget(p *vm.Program, np int, budget int64) (string, error) {
	var out strings.Builder
	_, err := p.Run(backend.Config{NP: np, Seed: 11, Stdout: &out, GroupOutput: true, StepBudget: budget})
	return out.String(), err
}

// minCompletingBudget binary-searches the smallest step budget under
// which the program completes. Budget kills are monotone in the limit, so
// the search is sound.
func minCompletingBudget(t *testing.T, p *vm.Program, np int, hi int64) int64 {
	t.Helper()
	if _, err := runBudget(p, np, hi); err != nil {
		t.Fatalf("kernel does not complete under budget %d: %v", hi, err)
	}
	lo := int64(1)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if _, err := runBudget(p, np, mid); err == nil {
			hi = mid
		} else if !errors.Is(err, backend.ErrStepBudget) {
			t.Fatalf("budget %d: unexpected error class: %v", mid, err)
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// orlyMebbeSrc tests typed comparisons with an O RLY? and a MEBBE, which
// compile to IT branches. Its pin is the count the stack lowering of both
// (a store, load and test of IT each) gave.
const orlyMebbeSrc = `HAI 1.2
I HAS A b ITZ 1.5
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4
  SMALLR i AN b, O RLY?
  YA RLY
    VISIBLE "lo"
  MEBBE DIFFRINT i AN 3
    VISIBLE "mid"
  OIC
IM OUTTA YR l
KTHXBYE`

// nestedArmSrc and gtfoArmSrc end an O RLY?'s only arm where the jump
// past the construct must stay: after a nested O RLY?, whose branch lands
// past the arm's last instruction, and after a GTFO, whose jump does not
// fall through. Folding that jump's weight into the arm's last
// instruction would move their pins.
const nestedArmSrc = `HAI 1.2
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4
  BIGGER i AN 0, O RLY?
  YA RLY
    VISIBLE "pos"
    DIFFRINT i AN 2, O RLY?
    YA RLY
      VISIBLE "not two"
    OIC
  OIC
IM OUTTA YR l
KTHXBYE`

const gtfoArmSrc = `HAI 1.2
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 9
  VISIBLE i
  BOTH SAEM i AN 3, O RLY?
  YA RLY
    VISIBLE "stop"
    GTFO
  OIC
IM OUTTA YR l
KTHXBYE`

// TestStepBudgetPinned pins, for each E1 kernel and for the O RLY?
// programs above, the smallest completing budget. Every instruction
// weighs the stack instructions a plain compilation of what it covers
// would execute, so no lowering of word ops or branches may move it. At that boundary the
// run prints the same bodies as the unlimited run, and one step less
// kills it.
func TestStepBudgetPinned(t *testing.T) {
	kernels := map[string]struct {
		src  string
		np   int
		want int64 // the smallest completing budget at seed 11
	}{
		"montecarlo": {experiments.GenMonteCarlo(60, 2), 2, 1526},
		"nbody":      {experiments.GenNBody(4, 1), 2, 2290},
		"arith":      {experiments.GenArithLoop(100), 1, 1314},
		"orly_mebbe": {orlyMebbeSrc, 1, 80},
		"nested_arm": {nestedArmSrc, 1, 90},
		"gtfo_arm":   {gtfoArmSrc, 1, 62},
	}
	for name, k := range kernels {
		t.Run(name, func(t *testing.T) {
			p := compileKernel(t, k.src)
			smallest := minCompletingBudget(t, p, k.np, int64(1)<<22)
			if smallest != k.want {
				t.Errorf("smallest completing budget is %d, want %d", smallest, k.want)
			}

			wantOut, err := runBudget(p, k.np, 0) // unlimited
			if err != nil {
				t.Fatalf("unlimited run: %v", err)
			}
			for _, budget := range []int64{smallest, smallest + 1, smallest + 1000} {
				out, err := runBudget(p, k.np, budget)
				if err != nil {
					t.Errorf("budget %d: unexpected kill: %v", budget, err)
				} else if out != wantOut {
					t.Errorf("budget %d: body diverges from unlimited run", budget)
				}
			}
			for _, budget := range []int64{1, 2, smallest / 2, smallest - 1} {
				if _, err := runBudget(p, k.np, budget); !errors.Is(err, backend.ErrStepBudget) {
					t.Errorf("budget %d: error = %v, want ErrStepBudget", budget, err)
				}
			}
		})
	}
}
