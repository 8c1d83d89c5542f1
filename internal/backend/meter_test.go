package backend_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
)

// infiniteLoop spins forever with no barrier — only the step budget or the
// context deadline can stop it.
const infiniteLoop = `HAI 1.2
I HAS A x ITZ 0
IM IN YR forever
  x R SUM OF x AN 1
IM OUTTA YR forever
KTHXBYE`

// TestStepBudgetKillsEveryBackend runs an infinite loop with a small step
// budget through every engine and expects the run to die with
// ErrStepBudget instead of hanging.
func TestStepBudgetKillsEveryBackend(t *testing.T) {
	prog, err := core.Parse("forever.lol", infiniteLoop)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range backend.All() {
		eng := eng
		t.Run(eng.Name(), func(t *testing.T) {
			t.Parallel()
			_, err := eng.Run(prog.Info, backend.Config{NP: 2, StepBudget: 10_000})
			if err == nil {
				t.Fatal("infinite loop completed under a step budget")
			}
			if !errors.Is(err, backend.ErrStepBudget) {
				t.Fatalf("error = %v, want ErrStepBudget", err)
			}
		})
	}
}

// TestContextDeadlineKillsEveryBackend bounds the same infinite loop with
// a wall-clock deadline and expects errors.Is against the context error.
func TestContextDeadlineKillsEveryBackend(t *testing.T) {
	prog, err := core.Parse("forever.lol", infiniteLoop)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range backend.All() {
		eng := eng
		t.Run(eng.Name(), func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			_, err := eng.Run(prog.Info, backend.Config{NP: 2, Context: ctx})
			if err == nil {
				t.Fatal("infinite loop completed under a deadline")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error = %v, want DeadlineExceeded", err)
			}
		})
	}
}

// TestCancelReleasesBarrier cancels runs where PE 0 spins forever while
// the others wait for it: in HUGZ, or in IM SRSLY MESIN WIF behind the
// lock PE 0 holds. Cancellation must release the waiting PEs rather than
// deadlocking the barrier or the lock queue.
func TestCancelReleasesBarrier(t *testing.T) {
	sources := []struct{ name, src string }{
		{"hugz", `HAI 1.2
BOTH SAEM ME AN 0, O RLY?
YA RLY
  I HAS A x ITZ 0
  IM IN YR forever
    x R SUM OF x AN 1
  IM OUTTA YR forever
OIC
HUGZ
KTHXBYE`},
		{"lock", `HAI 1.2
WE HAS A tally ITZ SRSLY A NUMBR AN IM SHARIN IT
BOTH SAEM ME AN 0, O RLY?
YA RLY
  IM SRSLY MESIN WIF tally
  HUGZ
  I HAS A x ITZ 0
  IM IN YR forever
    x R SUM OF x AN 1
  IM OUTTA YR forever
NO WAI
  HUGZ
  IM SRSLY MESIN WIF tally
  DUN MESIN WIF tally
OIC
KTHXBYE`},
	}
	for _, eng := range backend.All() {
		eng := eng
		t.Run(eng.Name(), func(t *testing.T) {
			t.Parallel()
			for _, tc := range sources {
				prog, err := core.Parse(tc.name+".lol", tc.src)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(30 * time.Millisecond)
					cancel()
				}()
				done := make(chan error, 1)
				go func() {
					_, err := eng.Run(prog.Info, backend.Config{NP: 4, Context: ctx})
					done <- err
				}()
				select {
				case err := <-done:
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: error = %v, want Canceled", tc.name, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: cancelled run did not release the waiting PEs", tc.name)
				}
			}
		})
	}
}

// TestMeterExactBudgetBoundary pins the budget's fencepost: a budget of N
// permits exactly N steps; the N+1th attempt is the one that dies.
func TestMeterExactBudgetBoundary(t *testing.T) {
	for _, limit := range []int64{1, 2, 1023, 1024, 1025, 5000} {
		m := backend.NewMeter(&backend.Config{StepBudget: limit})
		for i := int64(0); i < limit; i++ {
			if err := m.Step(); err != nil {
				t.Fatalf("limit %d: step %d failed early: %v", limit, i+1, err)
			}
		}
		if err := m.Step(); !errors.Is(err, backend.ErrStepBudget) {
			t.Errorf("limit %d: step %d error = %v, want ErrStepBudget", limit, limit+1, err)
		}
	}
}

// TestStepBudgetRoomToFinish checks that a budget large enough for the
// program is invisible: the run completes with identical output.
func TestStepBudgetRoomToFinish(t *testing.T) {
	prog, err := core.Parse("ok.lol", "HAI 1.2\nVISIBLE SMOOSH \"PE \" AN ME MKAY\nKTHXBYE")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range backend.All() {
		var out strings.Builder
		cfg := backend.Config{NP: 2, Stdout: &out, GroupOutput: true, StepBudget: 1 << 20, Context: context.Background()}
		if _, err := eng.Run(prog.Info, cfg); err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if out.String() != "PE 0\nPE 1\n" {
			t.Errorf("%s output = %q", eng.Name(), out.String())
		}
	}
}

// TestMeterStepNBoundary pins the weighted fencepost the VM's weighted
// instructions rely on: StepN(w) must behave exactly like w consecutive
// Steps, so a budget of N permits exactly N steps regardless of how they
// are grouped into weighted blocks.
func TestMeterStepNBoundary(t *testing.T) {
	for _, limit := range []int64{1, 2, 3, 4, 7, 1023, 1024, 1025, 5000} {
		for _, w := range []int64{2, 3, 4} {
			m := backend.NewMeter(&backend.Config{StepBudget: limit})
			used := int64(0)
			for used+w <= limit {
				if err := m.StepN(w); err != nil {
					t.Fatalf("limit %d w %d: StepN at used=%d failed early: %v", limit, w, used, err)
				}
				used += w
			}
			// The next weighted attempt overdraws (used+w > limit) and must
			// die, exactly as the w-th single Step would.
			if err := m.StepN(w); !errors.Is(err, backend.ErrStepBudget) {
				t.Errorf("limit %d w %d: overdraw error = %v, want ErrStepBudget", limit, w, err)
			}
		}
	}
}

// TestMeterStepNMixed interleaves plain and weighted steps across a grant
// boundary.
func TestMeterStepNMixed(t *testing.T) {
	m := backend.NewMeter(&backend.Config{StepBudget: 10})
	for i := 0; i < 3; i++ {
		if err := m.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := m.StepN(4); err != nil { // 7 used
		t.Fatalf("StepN(4): %v", err)
	}
	if err := m.StepN(3); err != nil { // 10 used: exactly the budget
		t.Fatalf("StepN(3): %v", err)
	}
	if err := m.StepN(2); !errors.Is(err, backend.ErrStepBudget) {
		t.Errorf("StepN past budget = %v, want ErrStepBudget", err)
	}
}
