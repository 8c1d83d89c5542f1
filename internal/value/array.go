package value

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"
)

// Array is the paper's first-class array extension: a dynamically sized,
// statically element-typed vector ("WE HAS A x ITZ SRSLY LOTZ A NUMBRS AN
// THAR IZ 100"). Element storage is a single typed slice so the PGAS
// runtime can move elements without boxing.
type Array struct {
	elem Kind
	n    []int64
	f    []float64
	s    []string
	b    []bool
}

// NewArrayOf allocates an array of size elements of the given scalar type.
func NewArrayOf(elem Kind, size int) (*Array, error) {
	if size < 0 {
		return nil, fmt.Errorf("array size %d is negative", size)
	}
	a := &Array{elem: elem}
	switch elem {
	case Numbr:
		a.n = make([]int64, size)
	case Numbar:
		a.f = make([]float64, size)
	case Yarn:
		a.s = make([]string, size)
	case Troof:
		a.b = make([]bool, size)
	default:
		return nil, fmt.Errorf("cannot make an array of %v", elem)
	}
	return a, nil
}

// Elem returns the element type.
func (a *Array) Elem() Kind { return a.elem }

// Len returns the number of elements.
func (a *Array) Len() int {
	switch a.elem {
	case Numbr:
		return len(a.n)
	case Numbar:
		return len(a.f)
	case Yarn:
		return len(a.s)
	case Troof:
		return len(a.b)
	}
	return 0
}

// IndexError reports an out-of-range array access.
type IndexError struct {
	Index int
	Len   int
}

func (e *IndexError) Error() string {
	return fmt.Sprintf("array index %d out of range [0,%d)", e.Index, e.Len)
}

func (a *Array) check(i int) error {
	if i < 0 || i >= a.Len() {
		return &IndexError{Index: i, Len: a.Len()}
	}
	return nil
}

// Get returns element i. Out-of-range access returns NOOB; callers that
// need the error use GetChecked.
func (a *Array) Get(i int) Value {
	v, _ := a.GetChecked(i)
	return v
}

// GetChecked returns element i or an *IndexError.
func (a *Array) GetChecked(i int) (Value, error) {
	if err := a.check(i); err != nil {
		return NOOB, err
	}
	switch a.elem {
	case Numbr:
		return NewNumbr(a.n[i]), nil
	case Numbar:
		return NewNumbar(a.f[i]), nil
	case Yarn:
		return NewYarn(a.s[i]), nil
	case Troof:
		return NewTroof(a.b[i]), nil
	}
	return NOOB, fmt.Errorf("array has invalid element type %v", a.elem)
}

// Set stores v into element i, casting it to the element type.
func (a *Array) Set(i int, v Value) error {
	if err := a.check(i); err != nil {
		return err
	}
	cv, err := Cast(v, a.elem)
	if err != nil {
		return err
	}
	switch a.elem {
	case Numbr:
		a.n[i] = cv.n
	case Numbar:
		a.f[i] = cv.f
	case Yarn:
		a.s[i] = cv.s
	case Troof:
		a.b[i] = cv.n != 0
	}
	return nil
}

// Resize grows or shrinks the array in place, zero-filling new elements.
// The paper calls for arrays "that can be dynamically sized".
func (a *Array) Resize(size int) error {
	if size < 0 {
		return fmt.Errorf("array size %d is negative", size)
	}
	grow := func(cur int) bool { return size > cur }
	switch a.elem {
	case Numbr:
		if grow(len(a.n)) {
			a.n = append(a.n, make([]int64, size-len(a.n))...)
		} else {
			a.n = a.n[:size]
		}
	case Numbar:
		if grow(len(a.f)) {
			a.f = append(a.f, make([]float64, size-len(a.f))...)
		} else {
			a.f = a.f[:size]
		}
	case Yarn:
		if grow(len(a.s)) {
			a.s = append(a.s, make([]string, size-len(a.s))...)
		} else {
			a.s = a.s[:size]
		}
	case Troof:
		if grow(len(a.b)) {
			a.b = append(a.b, make([]bool, size-len(a.b))...)
		} else {
			a.b = a.b[:size]
		}
	}
	return nil
}

// CopyFrom overwrites this array's contents with src's, resizing to match.
// Element types must agree; this is the whole-array assignment used by the
// paper's ring example ("MAH array R UR array").
func (a *Array) CopyFrom(src *Array) error {
	if a.elem != src.elem {
		return fmt.Errorf("cannot copy array of %v into array of %v", src.elem, a.elem)
	}
	if err := a.Resize(src.Len()); err != nil {
		return err
	}
	switch a.elem {
	case Numbr:
		copy(a.n, src.n)
	case Numbar:
		copy(a.f, src.f)
	case Yarn:
		copy(a.s, src.s)
	case Troof:
		copy(a.b, src.b)
	}
	return nil
}

// Clone returns a deep copy.
func (a *Array) Clone() *Array {
	c := &Array{elem: a.elem}
	switch a.elem {
	case Numbr:
		c.n = append([]int64(nil), a.n...)
	case Numbar:
		c.f = append([]float64(nil), a.f...)
	case Yarn:
		c.s = append([]string(nil), a.s...)
	case Troof:
		c.b = append([]bool(nil), a.b...)
	}
	return c
}

// Numbrs exposes the backing slice of a NUMBR array (nil otherwise).
// The PGAS runtime uses the typed views for bulk transfers.
func (a *Array) Numbrs() []int64 { return a.n }

// Numbars exposes the backing slice of a NUMBAR array (nil otherwise).
func (a *Array) Numbars() []float64 { return a.f }

// Yarns exposes the backing slice of a YARN array (nil otherwise).
func (a *Array) Yarns() []string { return a.s }

// Troofs exposes the backing slice of a TROOF array (nil otherwise).
func (a *Array) Troofs() []bool { return a.b }

// WordElems reports whether each element is one 64-bit word (NUMBR or
// NUMBAR): the arrays the atomic word accessors below accept. The PGAS
// runtime reads such an element with one atomic load while other PEs
// store to the array, so every store a concurrent LoadBits may observe
// must go through StoreWord.
func (a *Array) WordElems() bool { return a.elem == Numbr || a.elem == Numbar }

func (a *Array) errNotWords() error {
	return fmt.Errorf("array of %v has no word elements", a.elem)
}

// numbarWord views NUMBAR element i as the uint64 sync/atomic operates on.
func (a *Array) numbarWord(i int) *uint64 { return (*uint64)(unsafe.Pointer(&a.f[i])) }

// LoadBits atomically loads the 64 bits of element i of a NUMBR or NUMBAR
// array: the int64 of a NUMBR, the IEEE-754 bits of a NUMBAR. It returns
// an *IndexError for an index out of range.
func (a *Array) LoadBits(i int) (uint64, error) {
	if !a.WordElems() {
		return 0, a.errNotWords()
	}
	if err := a.check(i); err != nil {
		return 0, err
	}
	if a.elem == Numbr {
		return uint64(atomic.LoadInt64(&a.n[i])), nil
	}
	return atomic.LoadUint64(a.numbarWord(i)), nil
}

// StoreWord is Set for NUMBR and NUMBAR arrays with an atomic store: it
// returns an *IndexError, or casts v to the element type and stores it.
func (a *Array) StoreWord(i int, v Value) error {
	if !a.WordElems() {
		return a.errNotWords()
	}
	if err := a.check(i); err != nil {
		return err
	}
	cv, err := Cast(v, a.elem)
	if err != nil {
		return err
	}
	if a.elem == Numbr {
		atomic.StoreInt64(&a.n[i], cv.n)
	} else {
		atomic.StoreUint64(a.numbarWord(i), math.Float64bits(cv.f))
	}
	return nil
}
