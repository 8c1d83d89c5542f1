package shmem

import "sync"

// centralBarrier is a central counting barrier: a mutex-protected arrival
// count plus the list of tasks parked in the current episode. Simple,
// fair enough, and O(n) wakeup — the teaching default.
//
// The episode-closing arrival swaps parked out under mu, atomically with
// the count reset, so a task parked in episode k can never be woken by
// episode k+1's completion; that is the sense reversal a generation
// counter would otherwise provide. The swapped-out list becomes spare
// and is refilled two episodes later. The closer walks it after
// unlocking, but episode k+1 cannot complete, and so episode k+2 cannot
// begin, until the closer itself arrives again.
type centralBarrier struct {
	mu      sync.Mutex
	n       int
	arrived int
	broken  bool
	parked  []*peTask
	spare   []*peTask
}

// arrive records t's arrival. The last arrival unparks every parked task
// and returns nil; earlier ones register t and return suspendPark.
func (b *centralBarrier) arrive(t *peTask) error {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return ErrWorldFailed
	}
	b.arrived++
	if b.arrived < b.n {
		b.parked = append(b.parked, t)
		b.mu.Unlock()
		return suspendPark
	}
	b.arrived = 0
	woken := b.parked
	b.parked, b.spare = b.spare[:0], woken
	b.mu.Unlock()
	for _, pt := range woken {
		pt.unpark(nil)
	}
	return nil
}

// wake breaks the barrier after a world failure: every parked task is
// unparked with ErrWorldFailed and later arrivals fail immediately.
func (b *centralBarrier) wake() {
	b.mu.Lock()
	b.broken = true
	woken := b.parked
	b.parked = nil
	b.mu.Unlock()
	for _, pt := range woken {
		pt.unpark(ErrWorldFailed)
	}
}
