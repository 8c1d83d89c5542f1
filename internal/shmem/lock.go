package shmem

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// ticketLock is a FIFO lock in the style of the distributed queueing
// locks OpenSHMEM implementations use for shmem_set_lock: arrivals take a
// ticket, the holder advances the serving counter on release. FIFO ordering
// keeps lock handoff fair under contention, which the teaching examples
// (everyone increments PE 0's counter) rely on to finish promptly.
type ticketLock struct {
	next    atomic.Int64
	serving atomic.Int64
	owner   atomic.Int64 // PE id + 1; 0 = unheld (diagnostics only)

	// Parked waiters, keyed by ticket. release hands the lock directly
	// to the parked holder of the next ticket (FIFO preserved) and
	// unparks it; World.fail drains the map on teardown.
	pmu    sync.Mutex
	parked map[int64]*peTask
}

// acquirePark takes a ticket, and either acquires immediately (nil) or
// registers the task for a release-time hand-off and returns
// suspendPark. The failure check happens under pmu, which release and
// drainParked also take, so a concurrent World.fail either is observed
// here (fail records its error before it drains, and the mutex orders
// us after the drain) or finds our registration when it drains — a
// waiter can never be stranded. Abandoning the ticket on failure leaves
// the queue stuck behind it, but a failed world is tearing down.
func (l *ticketLock) acquirePark(t *peTask) error {
	tk := l.next.Add(1) - 1
	l.pmu.Lock()
	if l.serving.Load() == tk {
		l.owner.Store(int64(t.pe.id) + 1)
		l.pmu.Unlock()
		return nil
	}
	if t.pe.w.failed() != nil {
		l.pmu.Unlock()
		return ErrWorldFailed
	}
	if l.parked == nil {
		l.parked = make(map[int64]*peTask)
	}
	l.parked[tk] = t
	l.pmu.Unlock()
	return suspendPark
}

// drainParked unparks every waiter with ErrWorldFailed.
func (l *ticketLock) drainParked() {
	l.pmu.Lock()
	var ts []*peTask
	for tk, t := range l.parked {
		delete(l.parked, tk)
		ts = append(ts, t)
	}
	l.pmu.Unlock()
	for _, t := range ts {
		t.unpark(ErrWorldFailed)
	}
}

// tryAcquire succeeds only when the lock is completely idle.
func (l *ticketLock) tryAcquire(pe int) bool {
	cur := l.serving.Load()
	if l.next.Load() != cur {
		return false
	}
	if !l.next.CompareAndSwap(cur, cur+1) {
		return false
	}
	l.owner.Store(int64(pe) + 1)
	return true
}

func (l *ticketLock) release(pe int) error {
	if own := l.owner.Load(); own != int64(pe)+1 {
		if own == 0 {
			return fmt.Errorf("shmem: PE %d released a lock it does not hold", pe)
		}
		return fmt.Errorf("shmem: PE %d released a lock held by PE %d", pe, own-1)
	}
	l.owner.Store(0)
	s := l.serving.Add(1)
	// Hand the lock to the parked holder of the now-serving ticket, if
	// any. The waiter is made owner here; its re-invoked SetLock only
	// records the acquisition. A ticket taken but not yet registered is
	// claimed by its own acquirePark, which sees serving under pmu.
	l.pmu.Lock()
	wt := l.parked[s]
	if wt != nil {
		delete(l.parked, s)
		l.owner.Store(int64(wt.pe.id) + 1)
	}
	l.pmu.Unlock()
	if wt != nil {
		wt.unpark(nil)
	}
	return nil
}

func (w *World) checkLock(id int) error {
	if id < 0 || id >= len(w.locks) {
		return fmt.Errorf("shmem: lock %d out of range [0,%d)", id, len(w.locks))
	}
	return nil
}

// lockHome is the PE that conceptually owns lock state for cost accounting;
// like symmetric objects in SHMEM, lock id i is homed on PE i mod N.
func (w *World) lockHome(id int) int { return id % w.n }

// SetLock blocks until this PE holds lock id (IM SRSLY MESIN WIF). Under
// the worker scheduler it may return a *Suspend; the release-time
// hand-off makes the parked PE the owner, so its re-invocation only
// consumes the wakeup and records the acquisition.
func (pe *PE) SetLock(id int) error {
	if err := pe.w.checkLock(id); err != nil {
		return err
	}
	pending, err := pe.consumeResume()
	if !pending {
		pe.charge(pe.w.model.LockNanos(pe.id, pe.w.lockHome(id)))
		if l := &pe.w.locks[id]; !l.tryAcquire(pe.id) {
			pe.stats.LockContended++
			err = l.acquirePark(pe.task)
		}
	}
	if err == suspendPark {
		return pe.park(func() error { return pe.SetLock(id) })
	}
	if err != nil {
		return err
	}
	pe.stats.LockAcquires++
	pe.trace(EvLock, pe.w.lockHome(id), id, 0)
	return nil
}

// drainLockWaiters releases every parked lock waiter after a world
// failure.
func (w *World) drainLockWaiters() {
	for i := range w.locks {
		w.locks[i].drainParked()
	}
}

// TestLock attempts lock id without blocking (IM MESIN WIF); it reports
// whether the lock was acquired.
func (pe *PE) TestLock(id int) (bool, error) {
	if err := pe.w.checkLock(id); err != nil {
		return false, err
	}
	pe.charge(pe.w.model.LockNanos(pe.id, pe.w.lockHome(id)))
	ok := pe.w.locks[id].tryAcquire(pe.id)
	if ok {
		pe.stats.LockAcquires++
	}
	pe.trace(EvTryLock, pe.w.lockHome(id), id, 0)
	return ok, nil
}

// ClearLock releases lock id (DUN MESIN WIF). Releasing a lock this PE
// does not hold is an error, which the teaching tool reports rather than
// corrupting the queue.
func (pe *PE) ClearLock(id int) error {
	if err := pe.w.checkLock(id); err != nil {
		return err
	}
	pe.charge(pe.w.model.LockNanos(pe.id, pe.w.lockHome(id)))
	pe.trace(EvUnlock, pe.w.lockHome(id), id, 0)
	return pe.w.locks[id].release(pe.id)
}
