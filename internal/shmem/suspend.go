package shmem

// Suspend is the scheduler's yield protocol. A blocking runtime
// operation — barrier arrival, lock acquisition — registers the calling
// PE's task in the relevant wait structure, and the task is resumed by an
// explicit unpark from whichever PE (or teardown path) satisfies the
// wait. Under the worker scheduler (World.RunScheduled) the operation
// does not block its OS thread: it returns a *Suspend through the
// ordinary error path. The engine's step function propagates it out to
// the scheduler, which parks the task and reuses the worker for a
// runnable PE. Under World.Run the PE's goroutine plays the scheduler's
// part itself (see PE.park), so the engine never sees the suspension.
//
// The contract for engines:
//
//   - A *Suspend is never wrapped; AsSuspend type-asserts directly.
//   - The suspended operation is RE-INVOKED on resume. The engine must
//     rewind so the parked operation is the first thing the resumed step
//     executes (the VM sets fr.ip back to the parked instruction and
//     refunds its meter weight). The re-invoked operation consumes the
//     wakeup payload and completes.
//   - Code between the previous suspension point and the blocking call
//     must therefore be idempotent; in practice the blocking call is the
//     whole instruction.
//
// Yield is a cooperative reschedule with no wait structure attached: the
// task goes straight back on the run queue. Compute loops use it so a
// bounded worker pool cannot be starved by fewer-than-NP long-running
// PEs.
type Suspend struct {
	// Yield distinguishes a reschedule request from a park request.
	Yield bool
}

func (s *Suspend) Error() string {
	if s.Yield {
		return "shmem: PE yielded (scheduler-internal, should not escape)"
	}
	return "shmem: PE suspended (scheduler-internal, should not escape)"
}

// The two suspension values. They carry no per-use state, so every
// suspension point shares them; identity is never compared, only type.
var (
	suspendPark  = &Suspend{}
	suspendYield = &Suspend{Yield: true}
)

// AsSuspend returns err as a *Suspend, or nil when err is anything else.
// Suspends are never wrapped, so a direct type assertion is the whole
// test — engines call this on every error edge that can cross a blocking
// operation.
func AsSuspend(err error) *Suspend {
	s, _ := err.(*Suspend)
	return s
}

// SuspendYield returns the shared yield request. Hand-written scheduled
// step functions (tests, experiment harnesses) return it to reschedule
// cooperatively; engines have their own yield checks built in.
func SuspendYield() error { return suspendYield }

// peTask is one PE's identity in the wait structures, in both execution
// modes. Under Run, sched is nil and the PE's goroutine receives its
// wakeup on wakeCh; under RunScheduled, the scheduler owns state and wake
// and requeues the task.
type peTask struct {
	pe    *PE
	sched *scheduler

	// wakeCh has one slot: a wait structure unparks each registration
	// exactly once, and the goroutine drains it before registering again,
	// so the waker never blocks.
	wakeCh chan error

	state taskState
	wake  wakeState
}

// unpark delivers a wakeup carrying err (nil, or ErrWorldFailed on
// teardown) to a task that a wait structure registered. Callers must not
// hold any wait-structure lock that the woken task's next step could
// need — the convention is: mutate the structure, unlock it, then unpark.
func (t *peTask) unpark(err error) {
	if t.sched != nil {
		t.sched.unpark(t, err)
		return
	}
	t.wakeCh <- err
}

// park finishes a blocking operation whose wait structure registered the
// PE's task and returned suspendPark. Under RunScheduled the suspension
// goes up to the worker, which parks the task and stages the wakeup
// before re-invoking the step. Under Run the goroutine stands in for the
// scheduler: it blocks on its wake channel, stages the payload, and
// re-invokes op, which consumes it and completes.
func (pe *PE) park(op func() error) error {
	t := pe.task
	if t.sched != nil {
		return suspendPark
	}
	pe.resumePending, pe.resumeErr = true, <-t.wakeCh
	return op()
}
