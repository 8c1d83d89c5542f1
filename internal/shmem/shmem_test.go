package shmem

import (
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/value"
)

func newTestWorld(t *testing.T, n int, syms []SymbolSpec, nLocks int, opts Options) *World {
	t.Helper()
	w, err := NewWorld(n, syms, nLocks, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorldRejectsBadSize(t *testing.T) {
	if _, err := NewWorld(0, nil, 0, Options{}); err == nil {
		t.Fatal("accepted world of size 0")
	}
}

func TestPutGetScalar(t *testing.T) {
	syms := []SymbolSpec{{Name: "x"}}
	w := newTestWorld(t, 4, syms, 0, Options{})
	err := w.Run(func(pe *PE) error {
		if err := pe.InitScalar(0, value.NewNumbr(int64(pe.ID()))); err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		next := (pe.ID() + 1) % pe.NPEs()
		v, err := pe.Get(next, 0)
		if err != nil {
			return err
		}
		if got, want := v.Numbr(), int64(next); got != want {
			t.Errorf("PE %d read %d from PE %d, want %d", pe.ID(), got, next, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := w.Stats(); s.RemoteGets != 4 {
		t.Errorf("RemoteGets = %d, want 4", s.RemoteGets)
	}
}

// TestStatsSumAcrossRuns runs one world twice, as lolbench's lock table
// does (a lock storm, then a run that reads the counter), and pins Stats
// after each run to the sum over both runs' PEs.
func TestStatsSumAcrossRuns(t *testing.T) {
	syms := []SymbolSpec{{Name: "x"}}
	w := newTestWorld(t, 2, syms, 1, Options{})
	err := w.Run(func(pe *PE) error {
		if err := pe.InitScalar(0, value.NewNumbr(0)); err != nil {
			return err
		}
		if pe.ID() == 0 {
			if err := pe.SetLock(0); err != nil {
				return err
			}
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		if pe.ID() == 0 {
			// Hold the lock until PE 1 has failed to take it and queued.
			for w.locks[0].next.Load() < 2 {
				runtime.Gosched()
			}
		}
		if pe.ID() == 1 {
			if err := pe.SetLock(0); err != nil {
				return err
			}
		}
		if err := pe.ClearLock(0); err != nil {
			return err
		}
		if err := pe.Put(1-pe.ID(), 0, value.NewNumbr(1)); err != nil {
			return err
		}
		return pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := StatsSnapshot{RemotePuts: 2, PutBytes: 16, Barriers: 4, LockAcquires: 2, LockContended: 1}
	if s := w.Stats(); s != want {
		t.Errorf("after the first run Stats = %+v, want %+v", s, want)
	}

	err = w.RunScheduled(0, func(pe *PE) func() error {
		return func() error {
			_, err := pe.Get(1-pe.ID(), 0)
			return err
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want.RemoteGets, want.GetBytes = 2, 16
	s := w.Stats()
	s.Sched = SchedSnapshot{}
	if s != want {
		t.Errorf("after the second run Stats = %+v, want %+v", s, want)
	}
}

// TestBarrierSafety checks the fundamental barrier invariant: no PE exits
// barrier episode k before every PE has entered it. The subtest is named
// after the central counting barrier, the one barrier the world uses.
func TestBarrierSafety(t *testing.T) {
	t.Run("central", func(t *testing.T) {
		const n, episodes = 8, 200
		w := newTestWorld(t, n, nil, 0, Options{})
		var entered [episodes]atomic.Int64
		err := w.Run(func(pe *PE) error {
			for k := 0; k < episodes; k++ {
				entered[k].Add(1)
				if err := pe.Barrier(); err != nil {
					return err
				}
				if got := entered[k].Load(); got != n {
					t.Errorf("PE %d exited episode %d with %d/%d entries", pe.ID(), k, got, n)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestBarrierReleasesOnFailure checks that a failing PE does not leave the
// others blocked forever at HUGZ.
func TestBarrierReleasesOnFailure(t *testing.T) {
	t.Run("central", func(t *testing.T) {
		w := newTestWorld(t, 4, nil, 0, Options{})
		err := w.Run(func(pe *PE) error {
			if pe.ID() == 2 {
				return errStub
			}
			return pe.Barrier()
		})
		if err == nil {
			t.Fatal("expected failure to propagate")
		}
		if !strings.Contains(err.Error(), "stub") {
			t.Errorf("error %v does not mention the root cause", err)
		}
	})
}

var errStub = &stubErr{}

type stubErr struct{}

func (*stubErr) Error() string { return "stub failure" }

// TestLockMutualExclusion runs a classic lost-update experiment: with the
// lock the counter is exact; each PE adds its increments under mutual
// exclusion.
func TestLockMutualExclusion(t *testing.T) {
	const n, iters = 8, 100
	syms := []SymbolSpec{{Name: "x"}}
	w := newTestWorld(t, n, syms, 1, Options{})
	err := w.Run(func(pe *PE) error {
		if err := pe.InitScalar(0, value.NewNumbr(0)); err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
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
		if got := v.Numbr(); got != n*iters {
			t.Errorf("PE %d sees counter %d, want %d", pe.ID(), got, n*iters)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockReleaseWithoutHoldErrors(t *testing.T) {
	w := newTestWorld(t, 1, nil, 1, Options{})
	err := w.Run(func(pe *PE) error { return pe.ClearLock(0) })
	if err == nil {
		t.Fatal("releasing an unheld lock should error")
	}
}

func TestTestLock(t *testing.T) {
	w := newTestWorld(t, 2, nil, 1, Options{})
	err := w.Run(func(pe *PE) error {
		if pe.ID() == 0 {
			if err := pe.SetLock(0); err != nil {
				return err
			}
			if err := pe.Barrier(); err != nil { // partner observes held lock
				return err
			}
			if err := pe.Barrier(); err != nil { // partner done observing
				return err
			}
			return pe.ClearLock(0)
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		ok, err := pe.TestLock(0)
		if err != nil {
			return err
		}
		if ok {
			t.Error("TestLock acquired a lock held by PE 0")
		}
		return pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAsymmetricAllocationDetected(t *testing.T) {
	syms := []SymbolSpec{{Name: "a", IsArray: true, Elem: value.Numbr}}
	w := newTestWorld(t, 4, syms, 0, Options{})
	err := w.Run(func(pe *PE) error {
		size := 16
		if pe.ID() == 3 {
			size = 17 // symmetry violation
		}
		return pe.AllocArray(0, size)
	})
	if err == nil {
		t.Fatal("asymmetric allocation not detected")
	}
	if !strings.Contains(err.Error(), "asymmetric") {
		t.Errorf("error %v does not mention asymmetry", err)
	}
}

func TestArrayPutGet(t *testing.T) {
	syms := []SymbolSpec{{Name: "a", IsArray: true, Elem: value.Numbar}}
	w := newTestWorld(t, 4, syms, 0, Options{})
	err := w.Run(func(pe *PE) error {
		if err := pe.AllocArray(0, 8); err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			if err := pe.LocalSetElem(0, i, value.NewNumbar(float64(pe.ID()*100+i))); err != nil {
				return err
			}
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		next := (pe.ID() + 1) % pe.NPEs()
		got, err := pe.GetElem(next, 0, 3)
		if err != nil {
			return err
		}
		if want := float64(next*100 + 3); got.Numbar() != want {
			t.Errorf("PE %d got %v, want %v", pe.ID(), got.Numbar(), want)
		}
		whole, err := pe.GetArray(next, 0)
		if err != nil {
			return err
		}
		if whole.Len() != 8 || whole.Get(7).Numbar() != float64(next*100+7) {
			t.Errorf("PE %d whole-array copy wrong: %v", pe.ID(), whole.Get(7))
		}
		return pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHeapWordsNeverTear runs element gets and puts, length-changing
// PutArray and GetArray from every PE on one NUMBAR and one NUMBR array,
// with no barrier after allocation: every value read must be one that
// some PE wrote. Element reads take no lock, so under -race this also
// fails if any element write is a plain store.
func TestHeapWordsNeverTear(t *testing.T) {
	const np, size, iters = 4, 8, 2000
	syms := []SymbolSpec{
		{Name: "f", IsArray: true, Elem: value.Numbar},
		{Name: "n", IsArray: true, Elem: value.Numbr},
	}
	// word puts the writer and sequence number in both halves, the low
	// one inverted, so a value mixed from two writes fails written.
	word := func(pe, seq int) uint64 {
		x := uint32(pe<<24 | seq)
		return uint64(x)<<32 | uint64(^x)
	}
	written := func(w uint64) bool {
		x := uint32(w >> 32)
		return w == 0 || uint32(w) == ^x && int(x>>24) < np && int(x&(1<<24-1)) < iters
	}
	elem := func(slot int, w uint64) value.Value {
		if syms[slot].Elem == value.Numbar {
			return value.NewNumbar(math.Float64frombits(w))
		}
		return value.NewNumbr(int64(w))
	}
	bits := func(v value.Value) uint64 {
		if v.Kind() == value.Numbar {
			return math.Float64bits(v.Numbar())
		}
		return uint64(v.Numbr())
	}

	w := newTestWorld(t, np, syms, 0, Options{})
	err := w.Run(func(pe *PE) error {
		for slot := range syms {
			if err := pe.AllocArray(slot, size); err != nil {
				return err
			}
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		check := func(op string, v value.Value) {
			if b := bits(v); !written(b) {
				t.Errorf("PE %d: %s read %#x, which no PE wrote", pe.ID(), op, b)
			}
		}
		for k := 0; k < iters; k++ {
			slot, idx := k%len(syms), k%size
			target := (pe.ID() + 1 + k/len(syms)) % np
			if err := pe.PutElem(target, slot, idx, elem(slot, word(pe.ID(), k))); err != nil {
				return err
			}
			v, err := pe.GetElem(target, slot, (idx+1)%size)
			if err != nil {
				return err
			}
			check("GetElem", v)
			if v, err = pe.LocalGetElem(slot, (idx+2)%size); err != nil {
				return err
			}
			check("LocalGetElem", v)
			switch k % 32 {
			case 0, 1: // one whole-array put per slot
				// Lengths cycle through size..size+3, so indexes below
				// size stay valid and most puts change the length.
				src, err := value.NewArrayOf(syms[slot].Elem, size+k/32%4)
				if err != nil {
					return err
				}
				for i := 0; i < src.Len(); i++ {
					if err := src.Set(i, elem(slot, word(pe.ID(), k))); err != nil {
						return err
					}
				}
				if err := pe.PutArray(target, slot, src); err != nil {
					return err
				}
			case 16, 17:
				arr, err := pe.GetArray(target, slot)
				if err != nil {
					return err
				}
				for i := 0; i < arr.Len(); i++ {
					check("GetArray", arr.Get(i))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemoteAccessBeforeAllocationDiagnosed(t *testing.T) {
	syms := []SymbolSpec{{Name: "a", IsArray: true, Elem: value.Numbr}}
	w := newTestWorld(t, 2, syms, 0, Options{})
	err := w.Run(func(pe *PE) error {
		if pe.ID() == 0 {
			_, err := pe.GetElem(1, 0, 0) // PE 1 may not have allocated yet
			return err
		}
		return nil
	})
	// PE 1 never allocates, so PE 0 must get the teaching diagnostic.
	if err == nil || !strings.Contains(err.Error(), "not allocated") {
		t.Fatalf("want allocation diagnostic, got %v", err)
	}
}
