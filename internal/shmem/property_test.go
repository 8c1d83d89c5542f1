package shmem

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

// TestPropertyPutGetShadow drives a random sequence of one-sided puts from
// PE 0 against a shadow model, with a barrier separating the write phase
// from verification: after the barrier, every PE must observe exactly the
// shadow state.
func TestPropertyPutGetShadow(t *testing.T) {
	f := func(writes []uint16) bool {
		const np, slots = 4, 3
		syms := make([]SymbolSpec, slots)
		for i := range syms {
			syms[i] = SymbolSpec{Name: string(rune('a' + i))}
		}
		w, err := NewWorld(np, syms, 0, Options{})
		if err != nil {
			return false
		}
		// shadow[pe][slot] mirrors what PE 0 wrote last.
		var shadow [np][slots]int64
		ok := true
		err = w.Run(func(pe *PE) error {
			for s := 0; s < slots; s++ {
				if err := pe.InitScalar(s, value.NewNumbr(0)); err != nil {
					return err
				}
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
			if pe.ID() == 0 {
				for i, wv := range writes {
					target := int(wv) % np
					slot := int(wv>>4) % slots
					val := int64(i + 1)
					if err := pe.Put(target, slot, value.NewNumbr(val)); err != nil {
						return err
					}
					shadow[target][slot] = val
				}
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
			for target := 0; target < np; target++ {
				for slot := 0; slot < slots; slot++ {
					v, err := pe.Get(target, slot)
					if err != nil {
						return err
					}
					if v.Numbr() != shadow[target][slot] {
						ok = false
					}
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBarrierUnderWorkerScheduler: for any world size, episode
// count, and pool width, every completed barrier episode separates the
// PEs exactly — after PE p's episode-k barrier returns, every PE has
// published its episode-k arrival — and every park is matched by exactly
// one unpark. This fails if a stale wakeup releases a waiter into the
// wrong episode, or if a wakeup that races the park is lost or counted
// twice.
func TestPropertyBarrierUnderWorkerScheduler(t *testing.T) {
	f := func(npRaw, epRaw, wkRaw uint8) bool {
		np := int(npRaw)%13 + 2 // 2..14
		episodes := int(epRaw)%10 + 1
		workers := int(wkRaw)%4 + 1
		w, err := NewWorld(np, []SymbolSpec{{Name: "progress"}}, 0, Options{})
		if err != nil {
			return false
		}
		var violated atomic.Bool
		err = w.RunScheduled(workers, func(pe *PE) func() error {
			episode, published := 0, false
			return func() error {
				for episode < episodes {
					if !published {
						if err := pe.Put(pe.ID(), 0, value.NewNumbr(int64(episode+1))); err != nil {
							return err
						}
						published = true
					}
					// May suspend; the resumed step re-enters here
					// (published is already true) and completes the same
					// episode.
					if err := pe.Barrier(); err != nil {
						return err
					}
					for q := 0; q < np; q++ {
						v, err := pe.Get(q, 0)
						if err != nil {
							return err
						}
						if v.Numbr() < int64(episode+1) {
							violated.Store(true)
						}
					}
					episode++
					published = false
				}
				return nil
			}
		})
		if err != nil || violated.Load() {
			return false
		}
		s := w.Stats().Sched
		return s.Parked == 0 && s.Ready == 0 && s.Running == 0 && s.Parks == s.Unparks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyLockSerializesUnderRandomSchedules: with random per-PE work
// patterns, a lock-protected read-modify-write never loses updates.
func TestPropertyLockSerializesUnderRandomSchedules(t *testing.T) {
	f := func(itersRaw [6]uint8) bool {
		const np = 6
		var total int64
		iters := make([]int, np)
		for i := range iters {
			iters[i] = int(itersRaw[i]) % 40
			total += int64(iters[i])
		}
		syms := []SymbolSpec{{Name: "ctr"}}
		w, err := NewWorld(np, syms, 1, Options{})
		if err != nil {
			return false
		}
		ok := true
		err = w.Run(func(pe *PE) error {
			if err := pe.InitScalar(0, value.NewNumbr(0)); err != nil {
				return err
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
			for i := 0; i < iters[pe.ID()]; i++ {
				if err := pe.SetLock(0); err != nil {
					return err
				}
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
			}
			if err := pe.Barrier(); err != nil {
				return err
			}
			v, err := pe.Get(0, 0)
			if err != nil {
				return err
			}
			if v.Numbr() != total {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
