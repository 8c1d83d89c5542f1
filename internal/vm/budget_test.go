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

func compileKernel(t *testing.T, src string, opts vm.Options) *vm.Program {
	t.Helper()
	tree, err := parser.Parse("kernel.lol", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := sema.Check(tree)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	p, err := vm.CompileOpts(info, opts)
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

// TestStepBudgetInvariantFusedVsUnfused is the S2 acceptance test: for
// each E1 kernel, the smallest completing budget must be IDENTICAL with
// fusion on and off — i.e. fused superinstructions meter exactly the
// pre-fusion step count — and at that boundary both forms produce the
// same bodies as the unlimited run, while one step less kills both. The
// budget itself is pinned too: typed ops each replace exactly one
// generic op, so they must not move any program's step count.
func TestStepBudgetInvariantFusedVsUnfused(t *testing.T) {
	kernels := map[string]struct {
		src  string
		np   int
		want int64 // the smallest completing budget at seed 11
	}{
		"montecarlo": {experiments.GenMonteCarlo(60, 2), 2, 1526},
		"nbody":      {experiments.GenNBody(4, 1), 2, 2290},
		"arith":      {experiments.GenArithLoop(100), 1, 1314},
	}
	for name, k := range kernels {
		t.Run(name, func(t *testing.T) {
			fused := compileKernel(t, k.src, vm.Options{})
			unfused := compileKernel(t, k.src, vm.Options{DisableFusion: true})

			const hi = int64(1) << 22
			sFused := minCompletingBudget(t, fused, k.np, hi)
			sUnfused := minCompletingBudget(t, unfused, k.np, hi)
			if sFused != sUnfused {
				t.Fatalf("smallest completing budget diverges: fused %d, unfused %d", sFused, sUnfused)
			}
			if sFused != k.want {
				t.Errorf("smallest completing budget is %d, want %d", sFused, k.want)
			}

			wantOut, err := runBudget(unfused, k.np, 0) // unlimited
			if err != nil {
				t.Fatalf("unlimited run: %v", err)
			}
			for _, budget := range []int64{sFused, sFused + 1, sFused + 1000} {
				for who, p := range map[string]*vm.Program{"fused": fused, "unfused": unfused} {
					out, err := runBudget(p, k.np, budget)
					if err != nil {
						t.Errorf("%s at budget %d: unexpected kill: %v", who, budget, err)
					} else if out != wantOut {
						t.Errorf("%s at budget %d: body diverges from unlimited run", who, budget)
					}
				}
			}
			for _, budget := range []int64{1, 2, sFused / 2, sFused - 1} {
				if budget < 1 {
					continue
				}
				for who, p := range map[string]*vm.Program{"fused": fused, "unfused": unfused} {
					if _, err := runBudget(p, k.np, budget); !errors.Is(err, backend.ErrStepBudget) {
						t.Errorf("%s at budget %d: error = %v, want ErrStepBudget", who, budget, err)
					}
				}
			}
		})
	}
}
