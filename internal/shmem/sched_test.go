package shmem

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/value"
)

// countingStep builds the standard lock-counting SPMD body as a resumable
// step function: every PE increments PE 0's shared counter iters times
// under the global lock, between two barriers. The phase machine keeps
// each blocking call alone at its phase boundary, so a resumed step
// re-executes exactly the suspended operation first — the suspend
// protocol's contract for hand-written scheduled bodies.
func countingStep(iters int, got *atomic.Int64) func(pe *PE) func() error {
	return func(pe *PE) func() error {
		phase, i := 0, 0
		return func() error {
			for {
				switch phase {
				case 0: // local init; no blocking op in this phase
					if pe.ID() == 0 {
						if err := pe.InitScalar(0, value.NewNumbr(0)); err != nil {
							return err
						}
					}
					phase = 1
				case 1:
					if err := pe.Barrier(); err != nil {
						return err
					}
					phase = 2
				case 2:
					if i >= iters {
						phase = 4
						continue
					}
					if err := pe.SetLock(0); err != nil {
						return err
					}
					phase = 3
				case 3: // critical section + release; ClearLock never blocks
					v, err := pe.Get(0, 0)
					if err != nil {
						return err
					}
					if err := pe.Put(0, 0, value.NewNumbr(v.Numbr()+1)); err != nil {
						return err
					}
					if err := pe.ClearLock(0); err != nil {
						return err
					}
					i++
					phase = 2
				case 4:
					if err := pe.Barrier(); err != nil {
						return err
					}
					phase = 5
				case 5:
					v, err := pe.Get(0, 0)
					if err != nil {
						return err
					}
					if pe.ID() == 0 {
						got.Store(v.Numbr())
					}
					return nil
				}
			}
		}
	}
}

func TestRunScheduledLockCounting(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		const np, iters = 32, 5
		w, err := NewWorld(np, []SymbolSpec{{Name: "ctr"}}, 1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got atomic.Int64
		if err := w.RunScheduled(workers, countingStep(iters, &got)); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Load() != np*iters {
			t.Fatalf("workers=%d: counter = %d, want %d", workers, got.Load(), np*iters)
		}
		s := w.Stats().Sched
		if s.Mode != "workers" {
			t.Fatalf("sched mode = %q, want workers", s.Mode)
		}
		if s.Parked != 0 || s.Ready != 0 || s.Running != 0 {
			t.Fatalf("workers=%d: gauges not drained: %+v", workers, s)
		}
		if s.Parks != s.Unparks {
			t.Fatalf("workers=%d: parks %d != unparks %d", workers, s.Parks, s.Unparks)
		}
		if s.MaxRunning > workers {
			t.Fatalf("workers=%d: max running %d exceeds pool", workers, s.MaxRunning)
		}
	}
}

// TestRunScheduledSpuriousUnpark runs the counting workload with the
// sched.spurious.unpark failpoint firing on every park: each parked task
// takes a detour through the run queue with its wake incomplete and must
// be re-parked without running, then resumed exactly once by the real
// wakeup — no lost wakeup, no double resume, counters still exact.
func TestRunScheduledSpuriousUnpark(t *testing.T) {
	defer faultinject.Reset()
	if err := faultinject.Arm("sched.spurious.unpark"); err != nil {
		t.Fatal(err)
	}
	const np, iters = 16, 4
	w, err := NewWorld(np, []SymbolSpec{{Name: "ctr"}}, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got atomic.Int64
	if err := w.RunScheduled(2, countingStep(iters, &got)); err != nil {
		t.Fatal(err)
	}
	if got.Load() != np*iters {
		t.Fatalf("counter = %d, want %d", got.Load(), np*iters)
	}
	s := w.Stats().Sched
	if s.Spurious == 0 {
		t.Fatal("failpoint armed but no spurious wakeups recorded")
	}
	if s.Parked != 0 || s.Ready != 0 || s.Running != 0 {
		t.Fatalf("gauges not drained: %+v", s)
	}
	if faultinject.Fired("sched.spurious.unpark") != s.Spurious {
		t.Fatalf("failpoint fired %d times but scheduler saw %d spurious wakes",
			faultinject.Fired("sched.spurious.unpark"), s.Spurious)
	}
}

// TestRunScheduledWakeReleasesParkedWaiters is the centralBarrier.wake
// audit: a parked waiter holds no goroutine of its own, so a failing
// world must unpark it explicitly or the run never terminates. PE 3
// fails before arriving, everyone else is parked.
func TestRunScheduledWakeReleasesParkedWaiters(t *testing.T) {
	boom := errors.New("boom")
	w, err := NewWorld(4, nil, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One worker pops tasks in PE order, so PEs 0..2 are parked in the
	// barrier before PE 3 fails — the drain is genuinely exercised.
	err = w.RunScheduled(1, func(pe *PE) func() error {
		return func() error {
			if pe.ID() == 3 {
				return boom
			}
			return pe.Barrier()
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want PE 3's error, got %v", err)
	}
	if !strings.Contains(err.Error(), "PE 3") {
		t.Fatalf("error not attributed to PE 3: %v", err)
	}
	if s := w.Stats().Sched; s.Parked != 0 || s.Ready != 0 || s.Running != 0 {
		t.Fatalf("gauges not drained after teardown: %+v", s)
	}
}

// TestRunScheduledDeadlockDetected: the scheduler's exact deadlock test.
// One PE exits holding the global lock; every other PE is parked on it
// with no wakeup ever coming. Goroutine mode would hang until a context
// deadline — worker mode must fail immediately with ErrDeadlock.
func TestRunScheduledDeadlockDetected(t *testing.T) {
	w, err := NewWorld(3, nil, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunScheduled(2, func(pe *PE) func() error {
		return func() error {
			if err := pe.SetLock(0); err != nil {
				return err
			}
			return nil // exit holding the lock: the others can never proceed
		}
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if !errors.Is(w.Err(), ErrDeadlock) {
		t.Fatalf("world cause = %v, want ErrDeadlock", w.Err())
	}
}

// TestRunScheduledWaitUntilYields: a step that polls for a peer's Put
// by returning SuspendYield goes back on the run queue, so a single
// worker can interleave the waiter (PE 0, which runs first and finds the
// slot still NOOB) with the putter (PE 1) instead of pinning the pool.
func TestRunScheduledWaitUntilYields(t *testing.T) {
	w, err := NewWorld(2, []SymbolSpec{{Name: "flag"}}, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = w.RunScheduled(1, func(pe *PE) func() error {
		return func() error {
			if pe.ID() == 1 {
				return pe.Put(0, 0, value.NewNumbr(1))
			}
			v, err := pe.LocalGet(0)
			if err != nil {
				return err
			}
			if v.Numbr() != 1 {
				return SuspendYield()
			}
			return nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := w.Stats().Sched; s.Yields == 0 {
		t.Fatalf("waiter never yielded: %+v", s)
	}
}
