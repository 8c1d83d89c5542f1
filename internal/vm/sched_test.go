package vm_test

// Worker-scheduler stress tests: kill classification with PEs parked at
// every blocking point, spurious-wakeup injection, and the high-NP
// goroutine-footprint bound that is the scheduler's reason to exist.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/shmem"
	"repro/internal/vm"
)

// spinBarrierSrc: PE 0 spins forever while every other PE is parked in
// HUGZ with no arrival ever coming. The only way out is a kill.
const spinBarrierSrc = `HAI 1.2
BOTH SAEM ME AN 0, O RLY?
YA RLY
  I HAS A going ITZ A NUMBR AN ITZ 1
  IM IN YR spin UPPIN YR k TIL BOTH SAEM going AN 0
    going R 1
  IM OUTTA YR spin
NO WAI
  HUGZ
OIC
KTHXBYE`

// spinLockSrc: PE 0 takes the global lock and spins forever holding it;
// the other PEs park either in the lock acquire or in the final HUGZ,
// so a kill must drain both wait structures.
const spinLockSrc = `HAI 1.2
WE HAS A l ITZ SRSLY A NUMBR AN IM SHARIN IT
HUGZ
BOTH SAEM ME AN 0, O RLY?
YA RLY
  IM SRSLY MESIN WIF l
  I HAS A going ITZ A NUMBR AN ITZ 1
  IM IN YR spin UPPIN YR k TIL BOTH SAEM going AN 0
    going R 1
  IM OUTTA YR spin
  DUN MESIN WIF l
NO WAI
  IM SRSLY MESIN WIF l
  DUN MESIN WIF l
OIC
HUGZ
KTHXBYE`

// TestSchedKillClassificationParity kills programs whose PEs are parked
// in HUGZ and in lock acquires — via step budget, context deadline, and
// explicit cancel — in both scheduler modes, with the
// sched.spurious.unpark failpoint injecting spurious wakeups throughout
// the worker runs. The outcome classification (errors.Is identity) must
// match goroutine mode exactly, and after every worker-mode kill the
// scheduler gauges must have drained to zero with parks and unparks
// balanced: no lost wakeup, no double resume, no PE left behind.
func TestSchedKillClassificationParity(t *testing.T) {
	defer faultinject.Reset()
	if err := faultinject.Arm("sched.spurious.unpark"); err != nil {
		t.Fatal(err)
	}

	kills := []struct {
		name  string
		setup func(cfg *backend.Config) (context.CancelFunc, error)
		class error
	}{
		{
			name: "budget",
			setup: func(cfg *backend.Config) (context.CancelFunc, error) {
				cfg.StepBudget = 50_000
				return func() {}, backend.ErrStepBudget
			},
		},
		{
			name: "timeout",
			setup: func(cfg *backend.Config) (context.CancelFunc, error) {
				ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
				cfg.Context = ctx
				return cancel, context.DeadlineExceeded
			},
		},
		{
			name: "cancelled",
			setup: func(cfg *backend.Config) (context.CancelFunc, error) {
				ctx, cancel := context.WithCancel(context.Background())
				cfg.Context = ctx
				time.AfterFunc(50*time.Millisecond, cancel)
				return cancel, context.Canceled
			},
		},
	}
	progs := map[string]*vm.Program{
		"barrier": compileKernel(t, spinBarrierSrc),
		"lock":    compileKernel(t, spinLockSrc),
	}
	const np = 8
	for pname, p := range progs {
		for _, kill := range kills {
			t.Run(pname+"/"+kill.name, func(t *testing.T) {
				var classes [2]error
				for i, mode := range []backend.SchedMode{backend.SchedGoroutines, backend.SchedWorkers} {
					cfg := backend.Config{NP: np, Seed: 7, GroupOutput: true, Sched: mode}
					cancel, class := kill.setup(&cfg)
					res, err := p.Run(cfg)
					cancel()
					if err == nil {
						t.Fatalf("%v mode: run completed, want a %s kill", mode, kill.name)
					}
					if !errors.Is(err, class) {
						t.Fatalf("%v mode: error %v does not classify as %v", mode, err, class)
					}
					classes[i] = class
					if mode == backend.SchedWorkers {
						s := res.Stats.Sched
						if s.Mode != "workers" {
							t.Fatalf("scheduler did not run in worker mode: %+v", s)
						}
						if s.Parked != 0 || s.Ready != 0 || s.Running != 0 {
							t.Errorf("scheduler gauges not drained after kill: %+v", s)
						}
						if s.Parks != s.Unparks {
							t.Errorf("parks %d != unparks %d after kill", s.Parks, s.Unparks)
						}
					}
				}
				if classes[0] != classes[1] {
					t.Errorf("modes classified differently: %v vs %v", classes[0], classes[1])
				}
			})
		}
	}
	if faultinject.Fired("sched.spurious.unpark") == 0 {
		t.Error("failpoint armed for every worker run but never fired — no park was actually stressed")
	}
}

// TestSchedMonteCarloHighNP is the footprint acceptance test: the
// NP=4096 Monte Carlo workload must complete on the vm tier in worker
// mode with the live goroutine count bounded by the worker pool — not
// O(NP) — while producing output byte-identical to goroutine-per-PE
// mode. The sampler polls runtime.NumGoroutine through the worker run;
// goroutine mode necessarily peaks above NP, so the two bounds straddle
// and the comparison cannot pass vacuously.
func TestSchedMonteCarloHighNP(t *testing.T) {
	np := 4096
	if testing.Short() {
		np = 1024
	}
	p := compileKernel(t, experiments.GenMonteCarlo(10, np))
	run := func(mode backend.SchedMode) (string, *backend.Result) {
		var out strings.Builder
		res, err := p.Run(backend.Config{NP: np, Seed: 2017, Stdout: &out, GroupOutput: true, Sched: mode})
		if err != nil {
			t.Fatalf("%v mode: %v", mode, err)
		}
		return out.String(), res
	}
	outG, _ := run(backend.SchedGoroutines)

	base := runtime.NumGoroutine()
	var maxG atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if g := int64(runtime.NumGoroutine()); g > maxG.Load() {
				maxG.Store(g)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	outW, res := run(backend.SchedWorkers)
	close(stop)
	wg.Wait()

	if outW != outG {
		t.Errorf("worker-mode output diverges from goroutine mode at np=%d", np)
	}
	s := res.Stats.Sched
	workers := shmem.DefaultSchedWorkers(np)
	if s.Mode != "workers" || s.Workers != workers {
		t.Errorf("scheduler config: %+v, want workers mode with %d workers", s, workers)
	}
	if s.MaxRunning > workers {
		t.Errorf("max concurrent steps %d exceeds pool size %d", s.MaxRunning, workers)
	}
	if s.Parked != 0 || s.Ready != 0 || s.Running != 0 || s.Parks != s.Unparks {
		t.Errorf("scheduler gauges not drained: %+v", s)
	}
	// Generous slack for test-runtime goroutines; the point is the order
	// of magnitude: ~workers, not ~NP.
	limit := int64(base + workers + 64)
	if got := maxG.Load(); got > limit || got > int64(np)/4 {
		t.Errorf("peak goroutines %d (base %d) — worker mode must stay bounded by the pool (limit %d), not O(NP=%d)", got, base, limit, np)
	}
}
