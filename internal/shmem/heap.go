package shmem

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/value"
)

// cell is one slot of a PE's symmetric heap: either a scalar value or a
// typed array. Single-element operations are atomic, the granularity real
// one-sided hardware gives for word-sized transfers. Word elements (NUMBR,
// NUMBAR) use atomic loads and stores: a read takes no lock, only an
// atomic load of arr and then of the element. Everything else uses the
// mutex, which every writer holds, re-loading arr under it so no put lands
// in a replaced instance. A published array never changes length, since
// lock-free readers index it: PutArray publishes a new instance.
type cell struct {
	mu  sync.Mutex
	v   value.Value
	arr atomic.Pointer[value.Array]
}

func (c *cell) lock()   { c.mu.Lock() }
func (c *cell) unlock() { c.mu.Unlock() }

// getElem reads element index; arr is the caller's load of c.arr. A word
// element is boxed here, straight from the atomic load, so the 48-byte
// Value is not copied back through one more call: that copy cost a third
// of BenchmarkT2_ElemGetShared/value.
func (c *cell) getElem(arr *value.Array, index int) (value.Value, error) {
	if arr.WordElems() {
		bits, err := arr.LoadBits(index)
		if err != nil {
			return value.NOOB, err
		}
		if arr.Elem() == value.Numbr {
			return value.NewNumbr(int64(bits)), nil
		}
		return value.NewNumbar(math.Float64frombits(bits)), nil
	}
	c.lock()
	v, err := c.arr.Load().GetChecked(index)
	c.unlock()
	return v, err
}

// setElem writes element index of the current instance.
func (c *cell) setElem(index int, v value.Value) error {
	c.lock()
	arr := c.arr.Load()
	var err error
	if arr.WordElems() {
		err = arr.StoreWord(index, v)
	} else {
		err = arr.Set(index, v)
	}
	c.unlock()
	return err
}

// valueBytes approximates the wire size of a scalar for cost accounting.
func valueBytes(v value.Value) int {
	switch v.Kind() {
	case value.Numbr, value.Numbar:
		return 8
	case value.Troof:
		return 1
	case value.Yarn:
		return len(v.Yarn())
	}
	return 0
}

func elemBytes(k value.Kind) int {
	switch k {
	case value.Numbr, value.Numbar:
		return 8
	case value.Troof:
		return 1
	case value.Yarn:
		return 16 // header estimate; strings are variable
	}
	return 8
}

func (w *World) checkSlot(slot int) error {
	if slot < 0 || slot >= len(w.syms) {
		return fmt.Errorf("shmem: symmetric slot %d out of range [0,%d)", slot, len(w.syms))
	}
	return nil
}

func (w *World) checkPE(pe int) error {
	if pe < 0 || pe >= w.n {
		return fmt.Errorf("shmem: PE %d out of range [0,%d)", pe, w.n)
	}
	return nil
}

func (w *World) cellAt(pe, slot int) *cell { return &w.heaps[pe][slot] }

// AllocArray performs this PE's share of a collective symmetric array
// allocation: every PE must allocate the same slot with the same size, the
// invariant real SHMEM requires of shmem_malloc. A size mismatch across
// PEs is reported as an error.
func (pe *PE) AllocArray(slot, size int) error {
	w := pe.w
	if err := w.checkSlot(slot); err != nil {
		return err
	}
	spec := w.syms[slot]
	if !spec.IsArray {
		return fmt.Errorf("shmem: slot %d (%s) is not an array", slot, spec.Name)
	}

	w.symSizeMu.Lock()
	switch cur := w.symSize[slot]; {
	case cur == -1:
		w.symSize[slot] = size
	case cur != size:
		w.symSizeMu.Unlock()
		return fmt.Errorf("shmem: asymmetric allocation of %s: PE %d wants %d elements, another PE allocated %d",
			spec.Name, pe.id, size, cur)
	}
	w.symSizeMu.Unlock()

	arr, err := value.NewArrayOf(spec.Elem, size)
	if err != nil {
		return fmt.Errorf("shmem: allocating %s: %w", spec.Name, err)
	}
	c := w.cellAt(pe.id, slot)
	c.lock()
	c.arr.Store(arr)
	c.unlock()
	return nil
}

// InitScalar sets this PE's local instance of a scalar slot without cost
// (declaration-time initialization).
func (pe *PE) InitScalar(slot int, v value.Value) error {
	if err := pe.w.checkSlot(slot); err != nil {
		return err
	}
	c := pe.w.cellAt(pe.id, slot)
	c.lock()
	c.v = v
	c.unlock()
	return nil
}

// accountPut charges, counts and traces one put of nbytes to target.
func (pe *PE) accountPut(target, slot, nbytes int) {
	pe.charge(pe.w.model.PutNanos(pe.id, target, nbytes))
	if target != pe.id {
		pe.stats.RemotePuts++
		pe.stats.PutBytes += int64(nbytes)
	}
	pe.trace(EvPut, target, slot, nbytes)
}

// accountGet charges, counts and traces one get of nbytes from target.
func (pe *PE) accountGet(target, slot, nbytes int) {
	pe.charge(pe.w.model.GetNanos(pe.id, target, nbytes))
	if target != pe.id {
		pe.stats.RemoteGets++
		pe.stats.GetBytes += int64(nbytes)
	}
	pe.trace(EvGet, target, slot, nbytes)
}

// Put writes a scalar into target's instance of slot (one-sided write).
func (pe *PE) Put(target, slot int, v value.Value) error {
	w := pe.w
	if err := w.checkPE(target); err != nil {
		return err
	}
	if err := w.checkSlot(slot); err != nil {
		return err
	}
	pe.accountPut(target, slot, valueBytes(v))
	c := w.cellAt(target, slot)
	c.lock()
	c.v = v
	c.unlock()
	return nil
}

// Get reads a scalar from target's instance of slot (one-sided read).
func (pe *PE) Get(target, slot int) (value.Value, error) {
	w := pe.w
	if err := w.checkPE(target); err != nil {
		return value.NOOB, err
	}
	if err := w.checkSlot(slot); err != nil {
		return value.NOOB, err
	}
	c := w.cellAt(target, slot)
	c.lock()
	v := c.v
	c.unlock()
	pe.accountGet(target, slot, valueBytes(v))
	return v, nil
}

// arrayAt makes the checks every array operation makes and returns pe's
// instance of slot.
func (w *World) arrayAt(pe, slot int) (*cell, *value.Array, error) {
	if err := w.checkPE(pe); err != nil {
		return nil, nil, err
	}
	if err := w.checkSlot(slot); err != nil {
		return nil, nil, err
	}
	c := w.cellAt(pe, slot)
	arr := c.arr.Load()
	if arr == nil {
		return nil, nil, fmt.Errorf(
			"shmem: PE %d's array %s is not allocated yet (did the program reach its WE HAS A, or is a HUGZ missing?)",
			pe, w.syms[slot].Name)
	}
	return c, arr, nil
}

// PutElem writes one array element into target's instance of slot.
func (pe *PE) PutElem(target, slot, index int, v value.Value) error {
	c, arr, err := pe.w.arrayAt(target, slot)
	if err != nil {
		return err
	}
	pe.accountPut(target, slot, elemBytes(arr.Elem()))
	return c.setElem(index, v)
}

// GetElem reads one array element from target's instance of slot.
func (pe *PE) GetElem(target, slot, index int) (value.Value, error) {
	c, arr, err := pe.w.arrayAt(target, slot)
	if err != nil {
		return value.NOOB, err
	}
	pe.accountGet(target, slot, elemBytes(arr.Elem()))
	return c.getElem(arr, index)
}

// getWord is the read behind the typed gets: GetElem's checks, its
// charge, count and trace when the get is one-sided, and the atomic load
// it makes of a word element. It also fails on an array whose elements
// are not words, and on an array of the other word type.
func (pe *PE) getWord(target, slot, index int, want value.Kind, oneSided bool) (uint64, error) {
	_, arr, err := pe.w.arrayAt(target, slot)
	if err != nil {
		return 0, err
	}
	if oneSided {
		pe.accountGet(target, slot, elemBytes(arr.Elem()))
	}
	bits, err := arr.LoadBits(index)
	if err == nil && arr.Elem() != want {
		err = fmt.Errorf("shmem: %s is an array of %v, not %v", pe.w.syms[slot].Name, arr.Elem(), want)
	}
	return bits, err
}

// GetNumbar reads one element of target's NUMBAR array instance of slot,
// unboxed: the analogue of OpenSHMEM's shmem_double_g. It checks,
// charges, counts and traces exactly as GetElem does.
func (pe *PE) GetNumbar(target, slot, index int) (float64, error) {
	bits, err := pe.getWord(target, slot, index, value.Numbar, true)
	return math.Float64frombits(bits), err
}

// GetNumbr reads one element of target's NUMBR array instance of slot,
// unboxed: the analogue of shmem_long_g.
func (pe *PE) GetNumbr(target, slot, index int) (int64, error) {
	bits, err := pe.getWord(target, slot, index, value.Numbr, true)
	return int64(bits), err
}

// LocalGetNumbar is LocalGetElem for a NUMBAR array, unboxed.
func (pe *PE) LocalGetNumbar(slot, index int) (float64, error) {
	bits, err := pe.getWord(pe.id, slot, index, value.Numbar, false)
	return math.Float64frombits(bits), err
}

// LocalGetNumbr is LocalGetElem for a NUMBR array, unboxed.
func (pe *PE) LocalGetNumbr(slot, index int) (int64, error) {
	bits, err := pe.getWord(pe.id, slot, index, value.Numbr, false)
	return int64(bits), err
}

// GetArray reads a deep copy of target's whole array instance (the paper's
// `MAH array R UR array` bulk transfer).
func (pe *PE) GetArray(target, slot int) (*value.Array, error) {
	c, _, err := pe.w.arrayAt(target, slot)
	if err != nil {
		return nil, err
	}
	c.lock()
	cp := c.arr.Load().Clone()
	c.unlock()
	pe.accountGet(target, slot, cp.Len()*elemBytes(cp.Elem()))
	return cp, nil
}

// PutArray overwrites target's whole array instance with a copy of src.
func (pe *PE) PutArray(target, slot int, src *value.Array) error {
	c, _, err := pe.w.arrayAt(target, slot)
	if err != nil {
		return err
	}
	pe.accountPut(target, slot, src.Len()*elemBytes(src.Elem()))
	c.lock()
	if arr := c.arr.Load(); arr.Elem() != src.Elem() {
		err = fmt.Errorf("cannot copy array of %v into array of %v", src.Elem(), arr.Elem())
	} else {
		c.arr.Store(src.Clone()) // publish, never write in place; see cell
	}
	c.unlock()
	return err
}

// LocalGetElem reads one element of this PE's own array instance (zero
// simulated cost). It is the element-read path the language backends use,
// and like GetElem it is atomic per element, so even a racy program (one
// that skips HUGZ) sees whole values rather than torn ones: a NUMBR or
// NUMBAR element is one atomic load without the cell mutex, any other
// element is read under it.
func (pe *PE) LocalGetElem(slot, index int) (value.Value, error) {
	c, arr, err := pe.w.arrayAt(pe.id, slot)
	if err != nil {
		return value.NOOB, err
	}
	return c.getElem(arr, index)
}

// LocalSetElem writes one element of this PE's own array instance under
// the cell lock (zero simulated cost).
func (pe *PE) LocalSetElem(slot, index int, v value.Value) error {
	c, _, err := pe.w.arrayAt(pe.id, slot)
	if err != nil {
		return err
	}
	return c.setElem(index, v)
}

// LocalGet reads this PE's own scalar instance without cost.
func (pe *PE) LocalGet(slot int) (value.Value, error) {
	if err := pe.w.checkSlot(slot); err != nil {
		return value.NOOB, err
	}
	c := pe.w.cellAt(pe.id, slot)
	c.lock()
	v := c.v
	c.unlock()
	return v, nil
}
