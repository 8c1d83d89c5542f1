// Package shmem is a from-scratch PGAS runtime in the spirit of the minimal
// OpenSHMEM subset the paper builds on: SPMD execution over N processing
// elements (PEs), symmetric memory, one-sided put/get, collective barriers
// and global locks.
//
// Symmetric memory is a per-PE heap of cells laid out identically on
// every PE (the paper's Figure 1); a remote reference is a (pe, slot)
// pair. As on one-sided hardware, reading a NUMBR or NUMBAR array element
// is one atomic word load that takes no lock; every other access locks
// the target cell. A pluggable cost model (see internal/machine) charges
// simulated nanoseconds to the calling PE for every one-sided operation,
// so programs report hardware-shaped timing without the hardware.
//
// A world executes in one of two modes, which share every wait
// structure and differ only in who waits on a parked task. A blocking
// operation — barrier arrival, lock acquisition — registers the PE's task
// with the barrier or ticket lock, which unparks it explicitly when
// satisfied (see suspend.go). Under World.Run each PE is a dedicated
// goroutine that waits on its task's wake channel and then re-invokes
// the operation, so to the caller the operation simply blocks — simple,
// and the differential oracle for everything else. Under
// World.RunScheduled each PE is a resumable continuation multiplexed onto
// a bounded worker pool: the operation returns a *Suspend instead, and
// the scheduler parks the task and re-runs its step after the wakeup.
// That is what makes NP in the thousands affordable: a parked PE costs
// one small struct, not a goroutine stack.
package shmem

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// CostModel prices one-sided operations in simulated nanoseconds.
// internal/machine provides implementations for the paper's platforms.
type CostModel interface {
	Name() string
	PutNanos(src, dst, bytes int) float64
	GetNanos(src, dst, bytes int) float64
	LockNanos(src, home int) float64
	BarrierNanos(n int) float64
}

// zeroCost is the default model: no simulated latency.
type zeroCost struct{}

func (zeroCost) Name() string                         { return "none" }
func (zeroCost) PutNanos(src, dst, bytes int) float64 { return 0 }
func (zeroCost) GetNanos(src, dst, bytes int) float64 { return 0 }
func (zeroCost) LockNanos(src, home int) float64      { return 0 }
func (zeroCost) BarrierNanos(n int) float64           { return 0 }

// SymbolSpec describes one slot of the symmetric heap.
type SymbolSpec struct {
	Name    string
	IsArray bool
	Elem    value.Kind // element type for arrays; Noob for dynamic scalars
}

// Options configures a World.
type Options struct {
	// Model prices one-sided operations; nil means free.
	Model CostModel
	// Seed is the base seed for per-PE deterministic RNG streams;
	// PE i uses Seed + i.
	Seed int64
	// Tracer, when non-nil, receives every runtime event (one-sided
	// accesses, barriers, lock operations). It must be safe for concurrent
	// use; see internal/trace for a ready-made recorder.
	Tracer Tracer
}

// ErrWorldFailed is returned from blocking operations when another PE has
// already failed, so that the whole SPMD program tears down instead of
// deadlocking at the next barrier.
var ErrWorldFailed = errors.New("shmem: another PE failed")

// World is one SPMD program instance: N PEs with symmetric heaps.
type World struct {
	n     int
	syms  []SymbolSpec
	heaps [][]cell // heaps[pe][slot]

	// symSize records the collective size of each symmetric array slot;
	// the first allocator sets it, later allocators must match (symmetric
	// allocation symmetry check).
	symSizeMu sync.Mutex
	symSize   []int // -1 = not yet allocated

	locks   []ticketLock
	barrier centralBarrier

	model CostModel
	opts  Options

	failOnce sync.Once
	failErr  atomic.Value // error

	// sched is non-nil iff this world runs under RunScheduled.
	sched *scheduler

	// stats totals the counters of the PEs of every finished Run and
	// RunScheduled; joinStats adds a run's PEs once they have all joined.
	stats PEStats
}

// NewWorld creates a world of n PEs with the given symmetric heap layout
// and lock count.
func NewWorld(n int, syms []SymbolSpec, nLocks int, opts Options) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shmem: world size %d must be positive", n)
	}
	if opts.Model == nil {
		opts.Model = zeroCost{}
	}
	w := &World{
		n:       n,
		syms:    syms,
		heaps:   make([][]cell, n),
		symSize: make([]int, len(syms)),
		locks:   make([]ticketLock, nLocks),
		barrier: centralBarrier{n: n},
		model:   opts.Model,
		opts:    opts,
	}
	for i := range w.symSize {
		w.symSize[i] = -1
	}
	for pe := 0; pe < n; pe++ {
		w.heaps[pe] = make([]cell, len(syms))
	}
	return w, nil
}

// N returns the number of PEs.
func (w *World) N() int { return w.n }

// Model returns the active cost model.
func (w *World) Model() CostModel { return w.model }

// Symbols returns the symmetric heap layout.
func (w *World) Symbols() []SymbolSpec { return w.syms }

// Stats returns the operation counters of every finished Run and
// RunScheduled on this world, summed over their PEs, plus the scheduler
// activity of the last RunScheduled. Each PE counts its own operations
// unsynchronized and its run adds them to the totals after every PE has
// joined, so call Stats between runs.
func (w *World) Stats() StatsSnapshot {
	c := &w.stats
	s := StatsSnapshot{
		RemotePuts:    c.RemotePuts,
		RemoteGets:    c.RemoteGets,
		PutBytes:      c.PutBytes,
		GetBytes:      c.GetBytes,
		Barriers:      c.Barriers,
		LockAcquires:  c.LockAcquires,
		LockContended: c.LockContended,
	}
	if w.sched != nil {
		s.Sched = w.sched.snapshot()
	}
	return s
}

// newPEs creates the PEs of a run.
func (w *World) newPEs() []*PE {
	pes := make([]*PE, w.n)
	for id := range pes {
		pes[id] = &PE{id: id, w: w, rng: rand.New(rand.NewSource(w.opts.Seed + int64(id)))}
	}
	return pes
}

// joinStats adds the counters of a run's PEs, all joined, to the world's
// totals.
func (w *World) joinStats(pes []*PE) {
	t := &w.stats
	for _, pe := range pes {
		c := &pe.stats
		t.RemotePuts += c.RemotePuts
		t.RemoteGets += c.RemoteGets
		t.PutBytes += c.PutBytes
		t.GetBytes += c.GetBytes
		t.Barriers += c.Barriers
		t.LockAcquires += c.LockAcquires
		t.LockContended += c.LockContended
	}
}

// fail records the first failure and releases every parked PE: the wake
// paths unpark each with ErrWorldFailed. The error is stored before the
// drains; ticketLock.acquirePark relies on that order.
func (w *World) fail(err error) {
	w.failOnce.Do(func() {
		w.failErr.Store(err)
		w.barrier.wake()
		w.drainLockWaiters()
	})
}

// Fail aborts the world cooperatively from outside the SPMD body: every PE
// blocked in a barrier or lock acquisition returns ErrWorldFailed instead
// of blocking forever, and PEs that are still computing tear down at
// their next blocking operation. Launchers use it to implement
// cancellation (deadline hit, client disconnected) without deadlocking
// peers in HUGZ. The first failure wins; later calls are no-ops.
func (w *World) Fail(err error) {
	if err == nil {
		err = ErrWorldFailed
	}
	w.fail(err)
}

func (w *World) failed() error {
	if err, ok := w.failErr.Load().(error); ok {
		return err
	}
	return nil
}

// Err returns the first failure recorded for this world (a PE error or an
// external Fail), or nil while the world is healthy. Launchers use it to
// distinguish a cancellation-driven teardown from a PE's own error.
func (w *World) Err() error { return w.failed() }

// PE is the per-processing-element handle passed to the SPMD body.
type PE struct {
	id  int
	w   *World
	rng *rand.Rand

	// task is the PE's identity in wait structures. resume* is the
	// wakeup payload staged before a parked operation is re-invoked; the
	// re-executed operation consumes it (consumeResume).
	task          *peTask
	resumePending bool
	resumeErr     error

	simNanos float64 // simulated time consumed by this PE
	stats    PEStats
}

// consumeResume hands the staged wakeup payload to the blocking
// operation being re-invoked after a park, clearing it so a later
// blocking call on the same PE starts fresh.
func (pe *PE) consumeResume() (pending bool, err error) {
	if !pe.resumePending {
		return false, nil
	}
	pe.resumePending = false
	return true, pe.resumeErr
}

// ID returns this PE's rank, 0..N-1 (the paper's ME).
func (pe *PE) ID() int { return pe.id }

// NPEs returns the world size (the paper's MAH FRENZ).
func (pe *PE) NPEs() int { return pe.w.n }

// World returns the owning world.
func (pe *PE) World() *World { return pe.w }

// Rand returns this PE's deterministic random stream (WHATEVR/WHATEVAR).
func (pe *PE) Rand() *rand.Rand { return pe.rng }

// SimNanos returns the simulated time this PE has consumed under the
// world's cost model.
func (pe *PE) SimNanos() float64 { return pe.simNanos }

func (pe *PE) charge(nanos float64) { pe.simNanos += nanos }

// Run executes body once per PE in its own goroutine and waits for all of
// them. The first error (or panic, converted to an error) releases PEs
// blocked in barriers and locks; Run returns the joined errors.
func (w *World) Run(body func(pe *PE) error) error {
	errs := make([]error, w.n)
	var wg sync.WaitGroup
	wg.Add(w.n)
	pes := w.newPEs()
	for _, pe := range pes {
		pe.task = &peTask{pe: pe, wakeCh: make(chan error, 1)}
		go func(pe *PE) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					err := fmt.Errorf("PE %d panicked: %v", pe.id, r)
					errs[pe.id] = err
					w.fail(err)
				}
			}()
			if err := body(pe); err != nil {
				errs[pe.id] = fmt.Errorf("PE %d: %w", pe.id, err)
				w.fail(errs[pe.id])
			}
		}(pe)
	}
	wg.Wait()
	w.joinStats(pes)
	return errors.Join(errs...)
}

// Barrier is the collective barrier (the paper's HUGZ). Every PE must call
// it before any PE continues. Under the worker scheduler it may return a
// *Suspend; the re-invocation after the wakeup completes it. The
// cost-model charge and the counters apply once, on arrival.
func (pe *PE) Barrier() error {
	pending, err := pe.consumeResume()
	if !pending {
		pe.charge(pe.w.model.BarrierNanos(pe.w.n))
		pe.stats.Barriers++
		err = pe.w.barrier.arrive(pe.task)
	}
	if err == suspendPark {
		return pe.park(pe.Barrier)
	}
	if err == nil {
		pe.trace(EvBarrier, -1, -1, 0)
	}
	return err
}
