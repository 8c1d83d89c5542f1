package shmem

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/value"
)

// typedGet is one of the typed element gets, with the boxed get it
// mirrors.
type typedGet struct {
	name  string
	elem  value.Kind
	local bool
	get   func(pe *PE, target, slot, index int) (uint64, error)
}

var typedGets = []typedGet{
	{"GetNumbar", value.Numbar, false, func(pe *PE, target, slot, index int) (uint64, error) {
		f, err := pe.GetNumbar(target, slot, index)
		return math.Float64bits(f), err
	}},
	{"GetNumbr", value.Numbr, false, func(pe *PE, target, slot, index int) (uint64, error) {
		n, err := pe.GetNumbr(target, slot, index)
		return uint64(n), err
	}},
	{"LocalGetNumbar", value.Numbar, true, func(pe *PE, _, slot, index int) (uint64, error) {
		f, err := pe.LocalGetNumbar(slot, index)
		return math.Float64bits(f), err
	}},
	{"LocalGetNumbr", value.Numbr, true, func(pe *PE, _, slot, index int) (uint64, error) {
		n, err := pe.LocalGetNumbr(slot, index)
		return uint64(n), err
	}},
}

// boxed is the element get g mirrors.
func (g typedGet) boxed(pe *PE, target, slot, index int) (value.Value, error) {
	if g.local {
		return pe.LocalGetElem(slot, index)
	}
	return pe.GetElem(target, slot, index)
}

// distanceCost charges a get by distance and size, so a get charged to
// the wrong target or with the wrong size shows in SimNanos.
type distanceCost struct{ zeroCost }

func (distanceCost) GetNanos(src, dst, bytes int) float64 {
	return float64(100*(1+max(src-dst, dst-src)) + bytes)
}

// Heap layout of the typed-get tests: one array of each word type, one
// array no PE allocates, and a YARN array.
var typedGetSyms = []SymbolSpec{
	{Name: "f", IsArray: true, Elem: value.Numbar},
	{Name: "n", IsArray: true, Elem: value.Numbr},
	{Name: "never", IsArray: true, Elem: value.Numbar},
	{Name: "s", IsArray: true, Elem: value.Yarn},
}

// runTypedGets allocates and fills the arrays on both PEs of a 2-PE world,
// then runs check on PE 0 reading from PE 1.
func runTypedGets(t *testing.T, opts Options, check func(pe *PE)) {
	t.Helper()
	w := newTestWorld(t, 2, typedGetSyms, 0, opts)
	err := w.Run(func(pe *PE) error {
		for _, slot := range []int{0, 1, 3} {
			if err := pe.AllocArray(slot, 4); err != nil {
				return err
			}
			for i := 0; i < 4; i++ {
				v := 10*pe.ID() + i
				if err := pe.LocalSetElem(slot, i, value.NewNumbar(float64(v)+0.5)); err != nil {
					return err
				}
			}
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		if pe.ID() == 0 {
			check(pe)
		}
		return pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTypedGetsMatchGetElem: on every allocated word element a typed get
// returns the bits GetElem's value carries, and it fails with GetElem's
// exact error for a bad PE, a bad slot, an unallocated array and an
// index out of range. A YARN array has no word to read: GetElem reads it
// under the cell mutex, and the typed gets fail with LoadBits's error.
// Asking for the other word type fails too.
func TestTypedGetsMatchGetElem(t *testing.T) {
	runTypedGets(t, Options{}, func(pe *PE) {
		for _, g := range typedGets {
			slot := 0
			if g.elem == value.Numbr {
				slot = 1
			}
			for i := 0; i < 4; i++ {
				bits, err := g.get(pe, 1, slot, i)
				v, verr := g.boxed(pe, 1, slot, i)
				want := uint64(v.Numbr())
				if g.elem == value.Numbar {
					want = math.Float64bits(v.Numbar())
				}
				if err != nil || verr != nil || bits != want {
					t.Errorf("%s[%d] = %#x, %v; boxed get gives %v, %v", g.name, i, bits, err, v, verr)
				}
			}

			type getCase struct {
				what                string
				target, slot, index int
			}
			cases := []getCase{
				{"bad slot", 1, 99, 0},
				{"unallocated array", 1, 2, 0},
				{"index past the end", 1, slot, 4},
				{"negative index", 1, slot, -1},
			}
			if !g.local {
				cases = append(cases, getCase{"bad PE", 2, slot, 0})
			}
			for _, c := range cases {
				_, err := g.get(pe, c.target, c.slot, c.index)
				_, want := g.boxed(pe, c.target, c.slot, c.index)
				if want == nil || fmt.Sprint(err) != fmt.Sprint(want) {
					t.Errorf("%s, %s: error %v, want %v", g.name, c.what, err, want)
				}
			}

			target := 1
			if g.local {
				target = 0
			}
			_, yarns, err := pe.w.arrayAt(target, 3)
			if err != nil {
				t.Fatal(err)
			}
			_, want := yarns.LoadBits(0)
			if _, err := g.get(pe, 1, 3, 0); want == nil || fmt.Sprint(err) != fmt.Sprint(want) {
				t.Errorf("%s on a YARN array: error %v, want %v", g.name, err, want)
			}
			if _, err := g.get(pe, 1, 1-slot, 0); err == nil {
				t.Errorf("%s read the other word type without error", g.name)
			}
		}
	})
}

// TestTypedGetsAccountLikeGetElem: a typed get moves RemoteGets,
// GetBytes, the simulated charge and the EvGet trace exactly as the
// boxed get it mirrors, whether it succeeds or its index is out of range
// (a get is charged before its index is checked).
func TestTypedGetsAccountLikeGetElem(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	opts := Options{Model: distanceCost{}, Tracer: func(e Event) {
		if e.Kind == EvGet {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		}
	}}
	type effect struct {
		gets, bytes int64
		nanos       float64
		events      []Event
	}
	// measure returns what op did to PE 0's counters, clock and trace.
	measure := func(pe *PE, op func()) effect {
		mu.Lock()
		n := len(events)
		mu.Unlock()
		before, nanos := pe.stats, pe.SimNanos()
		op()
		mu.Lock()
		defer mu.Unlock()
		return effect{
			gets:   pe.stats.RemoteGets - before.RemoteGets,
			bytes:  pe.stats.GetBytes - before.GetBytes,
			nanos:  pe.SimNanos() - nanos,
			events: append([]Event(nil), events[n:]...),
		}
	}
	runTypedGets(t, opts, func(pe *PE) {
		for _, g := range typedGets {
			slot := 0
			if g.elem == value.Numbr {
				slot = 1
			}
			for _, index := range []int{2, 4} {
				want := measure(pe, func() { g.boxed(pe, 1, slot, index) })
				got := measure(pe, func() { g.get(pe, 1, slot, index) })
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s index %d: moved %+v, boxed get moved %+v", g.name, index, got, want)
				}
				if !g.local && (want.gets != 1 || want.nanos == 0 || len(want.events) != 1) {
					t.Errorf("%s index %d: the boxed get moved only %+v", g.name, index, want)
				}
			}
		}
	})
}
