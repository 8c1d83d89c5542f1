package shmem

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/faultinject"
)

// ErrDeadlock reports that the worker scheduler found every live PE
// parked with nothing runnable and no wakeup in flight: the program has
// deadlocked (a PE exited holding a lock, mismatched barrier arrivals
// across an IM MESIN WIF branch, and so on). Goroutine mode has no such
// detector — a deadlocked program simply hangs until its context
// deadline — so this is a deliberate, documented divergence: worker mode
// converts an eventual timeout into an immediate, attributable error.
var ErrDeadlock = errors.New("shmem: deadlock: every unfinished PE is parked")

// taskState is the scheduler-side lifecycle of one PE.
type taskState int8

const (
	taskReady   taskState = iota // on the run queue (or headed there)
	taskRunning                  // a worker is executing its step
	taskParked                   // registered in a wait structure
	taskDone                     // step returned nil or a real error
)

// wakeState is the wakeup mailbox of one task, guarded by scheduler.mu.
type wakeState struct {
	// complete marks a deliverable wakeup: the initial spawn or a real
	// unpark. A task popped from the run queue with an incomplete wake
	// was requeued spuriously (failpoint injection) and is re-parked
	// without running — the real wakeup is still on its way.
	complete bool
	// deliver and err form the resume payload handed to the PE before
	// its step is re-invoked; see PE.consumeResume.
	deliver bool
	err     error
}

// scheduler multiplexes N PE continuations onto a bounded worker pool.
// One mutex guards every task-state transition and every counter, which
// keeps the invariants checkable by inspection: a task is on the run
// queue at most once (enqueues happen only on a transition to
// taskReady), wakeups cannot be lost (unpark and park serialize on mu),
// and the deadlock test below is exact, not heuristic.
type scheduler struct {
	w       *World
	workers int

	mu       sync.Mutex
	runq     chan *peTask
	nReady   int
	nRunning int
	nParked  int
	nDone    int

	parks      int64
	unparks    int64
	spurious   int64
	yields     int64
	maxRunning int
}

// SchedSnapshot reports worker-scheduler activity for one world. Mode is
// empty for goroutine-per-PE worlds (everything else is then zero).
type SchedSnapshot struct {
	Mode       string `json:"mode,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	Parks      int64  `json:"parks,omitempty"`
	Unparks    int64  `json:"unparks,omitempty"`
	Spurious   int64  `json:"spurious,omitempty"`
	Yields     int64  `json:"yields,omitempty"`
	MaxRunning int    `json:"max_running,omitempty"`
	Parked     int    `json:"parked,omitempty"`
	Ready      int    `json:"ready,omitempty"`
	Running    int    `json:"running,omitempty"`
}

func (s *scheduler) snapshot() SchedSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SchedSnapshot{
		Mode:       "workers",
		Workers:    s.workers,
		Parks:      s.parks,
		Unparks:    s.unparks,
		Spurious:   s.spurious,
		Yields:     s.yields,
		MaxRunning: s.maxRunning,
		Parked:     s.nParked,
		Ready:      s.nReady,
		Running:    s.nRunning,
	}
}

// DefaultSchedWorkers is the worker-pool size used when the caller does
// not override it: enough parallelism to keep every core busy with
// headroom for workers briefly blocked in output plumbing, but
// independent of NP — the whole point is that NP=4096 costs 4096 small
// task structs, not 4096 stacks.
func DefaultSchedWorkers(n int) int {
	w := runtime.GOMAXPROCS(0) * 2
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunScheduled executes the SPMD program with a bounded worker pool
// instead of a goroutine per PE. makeStep builds one resumable step
// function per PE: the step runs until the PE finishes (returns nil),
// fails (returns a real error), or reaches a blocking point (returns a
// *Suspend after the runtime has registered the task for wakeup). Parked
// tasks cost no goroutine; at most `workers` steps execute concurrently
// (workers <= 0 selects DefaultSchedWorkers).
//
// Error semantics match Run: per-PE errors are wrapped "PE %d: %w",
// panics become errors, the first failure tears down the world, and the
// joined errors are returned — additionally wrapped with ErrDeadlock
// when the scheduler's exact deadlock detector fired the teardown.
func (w *World) RunScheduled(workers int, makeStep func(pe *PE) func() error) error {
	n := w.n
	if workers <= 0 {
		workers = DefaultSchedWorkers(n)
	}
	if workers > n {
		workers = n
	}
	s := &scheduler{
		w:       w,
		workers: workers,
		runq:    make(chan *peTask, n),
		nReady:  n,
	}
	w.sched = s
	errs := make([]error, n)
	steps := make([]func() error, n)
	tasks := make([]*peTask, n)
	for id := 0; id < n; id++ {
		pe := &PE{id: id, w: w, rng: rand.New(rand.NewSource(w.opts.Seed + int64(id)))}
		t := &peTask{pe: pe, sched: s, state: taskReady, wake: wakeState{complete: true}}
		pe.task = t
		tasks[id] = t
		steps[id] = makeStep(pe)
	}
	for _, t := range tasks {
		s.runq <- t
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			s.worker(steps, errs)
		}()
	}
	wg.Wait()
	err := errors.Join(errs...)
	if err != nil && errors.Is(w.Err(), ErrDeadlock) && !errors.Is(err, ErrDeadlock) {
		err = fmt.Errorf("%w: %w", ErrDeadlock, err)
	}
	return err
}

// worker is one pool goroutine: pop a ready task, run its step, and
// route the outcome (done, park, yield) back through the state machine.
func (s *scheduler) worker(steps []func() error, errs []error) {
	for t := range s.runq {
		s.mu.Lock()
		if t.state != taskReady {
			// A queue entry can only exist for a ready task; anything else
			// is a scheduler bug, but skipping is safer than running a
			// task twice.
			s.mu.Unlock()
			continue
		}
		if !t.wake.complete {
			// Spuriously requeued at park time (failpoint): the wait
			// structure still holds the registration and the real wakeup
			// has not arrived. Re-park without running the operation. (If
			// the real wakeup raced in before this pop, complete is true
			// and the task simply runs — the spurious detour is absorbed.)
			t.state = taskParked
			s.nReady--
			s.nParked++
			dead := s.deadlockedLocked()
			s.mu.Unlock()
			if dead {
				s.w.fail(ErrDeadlock)
			}
			continue
		}
		t.state = taskRunning
		s.nReady--
		s.nRunning++
		if s.nRunning > s.maxRunning {
			s.maxRunning = s.nRunning
		}
		wk := t.wake
		t.wake = wakeState{}
		s.mu.Unlock()

		if wk.deliver {
			t.pe.resumePending = true
			t.pe.resumeErr = wk.err
		}
		err := runStep(t.pe.id, steps[t.pe.id])

		if sus := AsSuspend(err); sus != nil {
			if sus.Yield {
				s.mu.Lock()
				t.state = taskReady
				t.wake = wakeState{complete: true}
				s.nRunning--
				s.nReady++
				s.yields++
				s.mu.Unlock()
				s.runq <- t
				continue
			}
			// Park request: the blocking operation registered t in a wait
			// structure before returning, so the wakeup may already have
			// raced in while the step was unwinding. That unpark was
			// counted, so the park is counted before the early requeue.
			s.mu.Lock()
			s.nRunning--
			s.parks++
			if t.wake.complete {
				t.state = taskReady
				s.nReady++
				s.mu.Unlock()
				s.runq <- t
				continue
			}
			if faultinject.Fire("sched.spurious.unpark") {
				// Injected spurious wakeup: requeue with the wake left
				// incomplete. The pop above re-parks it (or runs it, if
				// the real wakeup arrives first); the wait structure's
				// registration stands throughout. The assertion this
				// failpoint buys: no lost wakeup, no double resume.
				s.spurious++
				t.state = taskReady
				s.nReady++
				s.mu.Unlock()
				s.runq <- t
				continue
			}
			t.state = taskParked
			s.nParked++
			dead := s.deadlockedLocked()
			s.mu.Unlock()
			if dead {
				s.w.fail(ErrDeadlock)
			}
			continue
		}

		// The PE finished (nil) or failed (real error).
		if pErr, ok := err.(*taskPanicError); ok {
			errs[t.pe.id] = pErr.err
			s.w.fail(pErr.err)
		} else if err != nil {
			errs[t.pe.id] = fmt.Errorf("PE %d: %w", t.pe.id, err)
			s.w.fail(errs[t.pe.id])
		}
		s.mu.Lock()
		t.state = taskDone
		s.nRunning--
		s.nDone++
		fin := s.nDone == s.w.n
		dead := !fin && s.deadlockedLocked()
		s.mu.Unlock()
		if fin {
			close(s.runq)
		}
		if dead {
			s.w.fail(ErrDeadlock)
		}
	}
}

// deadlockedLocked is the exact deadlock test, valid under s.mu: a real
// wakeup can only be produced by a task currently executing its step
// (barrier completion, lock release) or by an external World.Fail, which
// itself makes tasks ready under mu. So if nothing is running and nothing
// is ready while PEs remain unfinished, no wakeup can ever arrive.
func (s *scheduler) deadlockedLocked() bool {
	return s.nRunning == 0 && s.nReady == 0 && s.nDone < s.w.n
}

// unpark delivers a wakeup to t on behalf of peTask.unpark.
func (s *scheduler) unpark(t *peTask, err error) {
	s.mu.Lock()
	if t.state == taskDone {
		s.mu.Unlock()
		return
	}
	s.unparks++
	t.wake.complete = true
	t.wake.deliver = true
	t.wake.err = err
	if t.state != taskParked {
		// Ready (queued, possibly spuriously) or still unwinding toward
		// its park: the worker handling it observes the completed wake
		// under mu and runs it. No second queue entry.
		s.mu.Unlock()
		return
	}
	t.state = taskReady
	s.nParked--
	s.nReady++
	s.mu.Unlock()
	s.runq <- t
}

// taskPanicError carries a recovered panic so the worker can store it
// unwrapped, matching goroutine mode's "PE %d panicked" shape.
type taskPanicError struct{ err error }

func (e *taskPanicError) Error() string { return e.err.Error() }

func runStep(id int, step func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &taskPanicError{fmt.Errorf("PE %d panicked: %v", id, r)}
		}
	}()
	return step()
}
