// Package vm is the bytecode execution backend: a compact VM with
// sema-resolved variable slots, sitting between the tree-walking
// interpreter and the closure compiler in the classic design space the
// paper's compiler-vs-interpreter argument spans. The bytecode compiler
// resolves symbols, operator dispatch and jump targets once. The VM runs
// one instruction loop per PE over the shmem SPMD runtime with the
// frame's code, constants, slots, words and instruction pointer cached in
// locals.
//
// Code whose kinds sema knows (Symbol.Rep and Info.StaticKind, which
// compile and gogen read too) runs on raw words. Each frame has a word
// file ([]uint64) beside its value slots. A private or loop counter whose
// Rep is RepInt or RepFloat is a word symbol: it lives in the word at its
// slot index, as int64 or float64 bits. Its value slot holds no value; a
// body that uses SRS marks it when the declaration runs (see wordDecl).
// Typed constants and temporaries take the words past NSlots; each chunk
// carries a template holding the constants' bits, which every new frame
// copies. Every expression with a static kind compiles to three-address
// word ops (w[A] = w[B] op w[C]), one opcode per operator and kind, with
// the NUMBR operand of a mixed pair widened first, as value.Binary
// widens. A loop head comparing two typed operands is one typed
// compare-and-branch, and a word counter counts with one
// increment-and-jump. A typed comparison that an O RLY? tests, the
// expression statement right before it or a MEBBE condition, is one IT
// branch: it stores the TROOF in IT and branches on it.
//
// At the boundaries, a dynamic consumer (VISIBLE, a YARN, an element or
// heap store, a call argument, IT) gets a typed result boxed by one op,
// and a dynamic value stored into a word symbol is unboxed: cast for a
// SRSLY target, with OpStoreSlotCast's error text, and checked against
// the kind sema promised otherwise, so a broken promise is an internal
// error rather than a read of the wrong payload. SRS and :{var} read and
// write word symbols through their words.
//
// Dynamic code runs on a value stack, one instruction per operation, and
// a dynamic op whose operands turn out numeric at run time still takes
// the typed bodies.
//
// Metering does not depend on the lowering. Each instruction carries its
// step weight W: the number of instructions a plain stack compilation of
// the AST nodes it covers would execute. A word op covers one operator
// plus the loads of the variable and constant operands it reads; a word
// branch adds the stack instructions that would test its condition (and,
// for the IT branch, store and reload IT). So a step budget buys the same
// steps as under a plain stack compilation, and Disassemble (or `lolrun
// -dump-bytecode`) prints each weight above 1.
package vm

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/sema"
	"repro/internal/shmem"
	"repro/internal/token"
	"repro/internal/value"
)

// engine implements backend.Backend. It recompiles on every Run; callers
// that run one program repeatedly should hold a Program (core.Program
// caches one per engine).
type engine struct{}

func (engine) Name() string { return "vm" }

func (engine) Run(info *sema.Info, cfg backend.Config) (*backend.Result, error) {
	p, err := Compile(info)
	if err != nil {
		return nil, err
	}
	return p.Run(cfg)
}

func init() { backend.Register(engine{}) }

// Program is a compiled bytecode program, safe for concurrent runs.
type Program struct {
	info    *sema.Info
	Main    *Chunk
	Funcs   []*Chunk // indexed by OpCall's A operand
	funcIdx map[string]int
}

const maxCallDepth = 10_000

// Run executes the program under cfg.
func (p *Program) Run(cfg backend.Config) (*backend.Result, error) {
	if cfg.NP <= 0 {
		cfg.NP = 1
	}
	world, err := backend.NewWorld(p.info, cfg)
	if err != nil {
		return nil, err
	}
	return p.RunWorld(cfg, world)
}

// vmYieldInterval is how many instructions a scheduled VM executes
// before yielding its worker. Large enough that the check (one
// predictable branch per dispatch) and the reschedule are noise, small
// enough that a compute-bound PE cannot starve the bounded pool.
const vmYieldInterval = 4096

// RunWorld executes the program on an existing world, one VM per PE.
// The VM keeps its whole execution state in the runner (frames sync ip
// at call, return, and suspension points), so it is the engine that can
// run under the worker scheduler: cfg.Sched selects goroutine-per-PE
// (the differential oracle) or parked continuations on a bounded pool.
func (p *Program) RunWorld(cfg backend.Config, world *shmem.World) (*backend.Result, error) {
	if cfg.UseWorkers(world.N()) {
		return backend.RunSPMDScheduled(cfg, world, func(pe *shmem.PE, io backend.PEIO) func() error {
			r := &runner{
				prog:       p,
				pe:         pe,
				out:        io.Out,
				errw:       io.Err,
				stdin:      io.Stdin,
				stack:      make([]value.Value, 0, 64),
				meter:      backend.NewMeter(&cfg),
				yieldEvery: vmYieldInterval,
			}
			return r.run
		})
	}
	return backend.RunSPMD(cfg, world, func(pe *shmem.PE, io backend.PEIO) error {
		r := &runner{
			prog:  p,
			pe:    pe,
			out:   io.Out,
			errw:  io.Err,
			stdin: io.Stdin,
			stack: make([]value.Value, 0, 64),
			meter: backend.NewMeter(&cfg),
		}
		return r.run()
	})
}

func rerr(pos token.Pos, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*backend.RuntimeError); ok {
		return err
	}
	return &backend.RuntimeError{Pos: pos, Err: err}
}

func rerrf(pos token.Pos, format string, args ...any) error {
	return &backend.RuntimeError{Pos: pos, Err: fmt.Errorf(format, args...)}
}

// frame is one activation record: the chunk being executed, its slot
// array and word file, and the stack/predication watermarks to restore
// on return.
type frame struct {
	chunk     *Chunk
	ip        int
	slots     []value.Value
	words     []uint64
	stackBase int
	predBase  int
}

// newFrame makes c's activation record, its words copied from the
// chunk's template.
func newFrame(c *Chunk) frame {
	return frame{chunk: c, slots: make([]value.Value, c.NSlots), words: append([]uint64(nil), c.Words...)}
}

// runner is one PE's virtual machine.
type runner struct {
	prog  *Program
	pe    *shmem.PE
	out   *backend.PEWriter
	errw  *backend.PEWriter
	stdin *backend.SharedReader

	stack  []value.Value
	frames []frame
	pred   []int // TXT MAH BFF predication stack of target PE ids

	// meter enforces the run's deadline and step budget; each
	// instruction meters its weight W (see the package doc), so word code
	// does not change how many steps a budget buys.
	meter backend.Meter

	// yieldEvery > 0 marks a scheduled runner: run() is a resumable step
	// function that suspends at barriers/locks and yields the worker
	// every yieldEvery instructions. 0 (goroutine mode) compiles the
	// yield check down to one never-taken branch.
	yieldEvery int
	sinceYield int
}

func (r *runner) push(v value.Value) { r.stack = append(r.stack, v) }

// incSlot steps a loop counter that is not a NUMBR by in.B.
func incSlot(v *value.Value, in *Instr) error {
	cur, err := v.ToNumbr()
	if err != nil {
		return rerr(in.Pos, fmt.Errorf("loop variable %s: %w", in.S, err))
	}
	*v = value.NewNumbr(cur + int64(in.B))
	return nil
}

// pushSlot grows the stack by one and returns the new top for an
// operation to write its result into. The slot is not cleared.
func (r *runner) pushSlot() *value.Value {
	if n := len(r.stack); n < cap(r.stack) {
		r.stack = r.stack[:n+1]
	} else {
		r.stack = append(r.stack, value.Value{})
	}
	return &r.stack[len(r.stack)-1]
}

func (r *runner) pop() value.Value {
	v := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	return v
}

// popInt pops an array index.
func (r *runner) popInt(pos token.Pos) (int, error) {
	i, err := r.pop().ToNumbr()
	if err != nil {
		return 0, rerr(pos, fmt.Errorf("array index: %w", err))
	}
	return int(i), nil
}

// predTarget returns the active predication target.
func (r *runner) predTarget(pos token.Pos) (int, error) {
	if len(r.pred) == 0 {
		return 0, rerrf(pos, "UR used outside of TXT MAH BFF predication")
	}
	return r.pred[len(r.pred)-1], nil
}

// target resolves which PE a heap access addresses.
func (r *runner) target(in *Instr) (pe int, remote bool, err error) {
	if in.B&flagRemote != 0 {
		t, err := r.predTarget(in.Pos)
		return t, true, err
	}
	return r.pe.ID(), false, nil
}

// run executes the main chunk to completion.
//
// The inner loop keeps the dispatch state — code, constant pool, slot
// array, word file and instruction pointer — in locals rather than
// reaching through the frame on every instruction; the frame is
// synchronized only at call and return boundaries.
// Under the worker scheduler run doubles as the PE's resumable step
// function: the first call lazily pushes the main frame, a suspension
// syncs fr.ip and returns the *Suspend unwrapped, and the next call
// restores the dispatch locals from the top frame — re-executing the
// suspended instruction, which consumes the wakeup (see shmem.Suspend).
func (r *runner) run() error {
	if r.frames == nil {
		r.frames = append(r.frames, newFrame(r.prog.Main))
	}
	fr := &r.frames[len(r.frames)-1]
	code := fr.chunk.Code
	consts := fr.chunk.Consts
	slots := fr.slots
	words := fr.words
	ip := fr.ip
	for {
		if r.yieldEvery > 0 {
			if r.sinceYield++; r.sinceYield >= r.yieldEvery {
				r.sinceYield = 0
				fr.ip = ip
				return shmem.SuspendYield()
			}
		}
		in := &code[ip]
		ip++
		if err := r.meter.StepN(int64(in.W)); err != nil {
			return rerr(in.Pos, err)
		}
		switch in.Op {
		case OpNop:

		case OpConst:
			*r.pushSlot() = consts[in.A]
		case OpLoadSlot:
			*r.pushSlot() = slots[in.A]
		case OpStoreSlot:
			t := len(r.stack) - 1
			slots[in.A] = r.stack[t]
			r.stack = r.stack[:t]
		case OpIncSlot:
			if v := &slots[in.A]; v.Kind() == value.Numbr {
				*v = value.NewNumbr(v.Numbr() + int64(in.B))
			} else if err := incSlot(v, in); err != nil {
				return err
			}
		case OpBinary:
			t := len(r.stack) - 2
			x, y := &r.stack[t], &r.stack[t+1]
			if err := binInto(x, value.BinOp(in.A), x, y); err != nil {
				return rerr(in.Pos, err)
			}
			r.stack = r.stack[:t+1]
		case OpJump:
			ip = in.A
		case OpJumpFalse:
			if !r.pop().ToTroof() {
				ip = in.A
			}
		case OpJumpTrue:
			if r.pop().ToTroof() {
				ip = in.A
			}

		case OpWSumI:
			words[in.A] = words[in.B] + words[in.C]
		case OpWDiffI:
			words[in.A] = words[in.B] - words[in.C]
		case OpWProduktI:
			words[in.A] = words[in.B] * words[in.C]
		case OpWBiggerI:
			*r.pushSlot() = value.NewTroof(int64(words[in.B]) > int64(words[in.C]))
		case OpWSmallrI:
			*r.pushSlot() = value.NewTroof(int64(words[in.B]) < int64(words[in.C]))
		case OpWBothSaemI:
			*r.pushSlot() = value.NewTroof(words[in.B] == words[in.C])
		case OpWDiffrintI:
			*r.pushSlot() = value.NewTroof(words[in.B] != words[in.C])
		case OpWSumF:
			words[in.A] = fw(wf(words[in.B]) + wf(words[in.C]))
		case OpWDiffF:
			words[in.A] = fw(wf(words[in.B]) - wf(words[in.C]))
		case OpWProduktF:
			words[in.A] = fw(wf(words[in.B]) * wf(words[in.C]))
		case OpWBiggerF:
			*r.pushSlot() = value.NewTroof(wf(words[in.B]) > wf(words[in.C]))
		case OpWSmallrF:
			*r.pushSlot() = value.NewTroof(wf(words[in.B]) < wf(words[in.C]))
		case OpWBothSaemF:
			*r.pushSlot() = value.NewTroof(wf(words[in.B]) == wf(words[in.C]))
		case OpWDiffrintF:
			*r.pushSlot() = value.NewTroof(wf(words[in.B]) != wf(words[in.C]))
		case OpWQuoshuntI, OpWModI, OpWBiggrOfI, OpWSmallrOfI,
			OpWQuoshuntF, OpWModF, OpWBiggrOfF, OpWSmallrOfF:
			u, err := wordBin(in.Op, words[in.B], words[in.C])
			if err != nil {
				return rerr(in.Pos, err)
			}
			words[in.A] = u

		case OpWJumpBiggerI:
			if (int64(words[in.B]) > int64(words[in.C])) == (in.A != 0) {
				ip = in.D
			}
		case OpWJumpSmallrI:
			if (int64(words[in.B]) < int64(words[in.C])) == (in.A != 0) {
				ip = in.D
			}
		case OpWJumpBothSaemI:
			if (words[in.B] == words[in.C]) == (in.A != 0) {
				ip = in.D
			}
		case OpWJumpDiffrintI:
			if (words[in.B] != words[in.C]) == (in.A != 0) {
				ip = in.D
			}
		case OpWJumpBiggerF:
			if (wf(words[in.B]) > wf(words[in.C])) == (in.A != 0) {
				ip = in.D
			}
		case OpWJumpSmallrF:
			if (wf(words[in.B]) < wf(words[in.C])) == (in.A != 0) {
				ip = in.D
			}
		case OpWJumpBothSaemF:
			if (wf(words[in.B]) == wf(words[in.C])) == (in.A != 0) {
				ip = in.D
			}
		case OpWJumpDiffrintF:
			if (wf(words[in.B]) != wf(words[in.C])) == (in.A != 0) {
				ip = in.D
			}
		case OpWJumpIT:
			x, y := words[in.B], words[in.C]
			var res bool
			switch Op(in.A) {
			case OpWBiggerI:
				res = int64(x) > int64(y)
			case OpWSmallrI:
				res = int64(x) < int64(y)
			case OpWBothSaemI:
				res = x == y
			case OpWDiffrintI:
				res = x != y
			case OpWBiggerF:
				res = wf(x) > wf(y)
			case OpWSmallrF:
				res = wf(x) < wf(y)
			case OpWBothSaemF:
				res = wf(x) == wf(y)
			default: // OpWDiffrintF
				res = wf(x) != wf(y)
			}
			slots[0] = value.NewTroof(res) // IT
			if !res {
				ip = in.D
			}

		case OpWSquarI:
			words[in.A] = words[in.B] * words[in.B]
		case OpWSquarF:
			f := wf(words[in.B])
			words[in.A] = fw(f * f)
		case OpWUnsquarI, OpWUnsquarF, OpWFlipI, OpWFlipF:
			f := wf(words[in.B])
			if in.Op == OpWUnsquarI || in.Op == OpWFlipI {
				f = float64(int64(words[in.B]))
			}
			var err error
			if in.Op <= OpWUnsquarF {
				f, err = value.RawUnsquar(f)
			} else {
				f, err = value.RawFlip(f)
			}
			if err != nil {
				return rerr(in.Pos, err)
			}
			words[in.A] = fw(f)
		case OpWMove:
			words[in.A] = words[in.B]
		case OpWWiden:
			words[in.A] = fw(float64(int64(words[in.B])))
		case OpWTrunc:
			words[in.A] = uint64(int64(wf(words[in.B])))
		case OpWIncJump:
			words[in.A] += uint64(in.B)
			ip = in.D
		case OpWBoxI:
			*r.pushSlot() = value.NewNumbr(int64(words[in.A]))
		case OpWBoxF:
			*r.pushSlot() = value.NewNumbar(wf(words[in.A]))

		case OpWElemSlotI, OpWElemSlotF:
			av := &slots[in.C]
			if av.Kind() != value.ArrayK {
				return rerrf(in.Pos, "%s is not an array", in.S)
			}
			arr, i := av.Array(), int64(words[in.B])
			if i < 0 || i >= int64(arr.Len()) {
				return rerr(in.Pos, &value.IndexError{Index: int(i), Len: arr.Len()})
			}
			if in.Op == OpWElemSlotI {
				words[in.A] = uint64(arr.Numbrs()[i])
			} else {
				words[in.A] = fw(arr.Numbars()[i])
			}
		case OpWElemHeapI, OpWElemHeapF:
			u, err := r.elemWord(in, int(int64(words[in.B])))
			if err != nil {
				return err
			}
			words[in.A] = u
		case OpWLoadHeapI, OpWLoadHeapF:
			v, err := r.getScalar(in.B, in.C, in.Pos)
			if err != nil {
				return err
			}
			k := value.Numbr
			if in.Op == OpWLoadHeapF {
				k = value.Numbar
			}
			u, err := heapWord(v, k)
			if err != nil {
				return rerr(in.Pos, err)
			}
			words[in.A] = u
		case OpWMe:
			words[in.A] = uint64(r.pe.ID())
		case OpWMahFrenz:
			words[in.A] = uint64(r.pe.NPEs())
		case OpWWhatevr:
			words[in.A] = uint64(r.pe.Rand().Int63n(1 << 31))
		case OpWWhatevar:
			words[in.A] = fw(r.pe.Rand().Float64())

		case OpPop:
			r.stack = r.stack[:len(r.stack)-1]
		case OpDup:
			r.push(r.stack[len(r.stack)-1])
		case OpStoreSlotCast:
			cv, err := value.Cast(r.pop(), value.Kind(in.B))
			if err != nil {
				return rerr(in.Pos, fmt.Errorf("assigning to SRSLY %s %s: %w", value.Kind(in.B), in.S, err))
			}
			slots[in.A] = cv
		case OpWIndex:
			i, err := r.popInt(in.Pos)
			if err != nil {
				return err
			}
			words[in.A] = uint64(i)
		case OpWCast:
			u, err := castWord(r.pop(), value.Kind(in.B))
			if err != nil {
				return rerr(in.Pos, err)
			}
			words[in.A] = u
		case OpWStoreCast:
			k := value.Kind(in.B)
			u, err := castWord(r.pop(), k)
			if err != nil {
				return rerr(in.Pos, fmt.Errorf("assigning to SRSLY %s %s: %w", k, in.S, err))
			}
			words[in.A] = u
		case OpWUnbox:
			u, err := unbox(r.pop(), value.Kind(in.B), in.S)
			if err != nil {
				return rerr(in.Pos, err)
			}
			words[in.A] = u
		case OpStoreSlotArr:
			v := r.pop()
			if cur := slots[in.A]; v.Kind() == value.ArrayK && cur.Kind() == value.ArrayK {
				// Whole-array assignment copies contents (value semantics).
				if err := cur.Array().CopyFrom(v.Array()); err != nil {
					return rerr(in.Pos, err)
				}
			} else {
				slots[in.A] = v
			}

		case OpLoadHeap:
			v, err := r.getScalar(in.A, in.B, in.Pos)
			if err != nil {
				return err
			}
			r.push(v)
		case OpLoadHeapArr:
			t, _, err := r.target(in)
			if err != nil {
				return err
			}
			// Whole-array read: a deep copy, as on real one-sided hardware.
			arr, err := r.pe.GetArray(t, in.A)
			if err != nil {
				return rerr(in.Pos, err)
			}
			r.push(value.NewArray(arr))
		case OpStoreHeap:
			t, _, err := r.target(in)
			if err != nil {
				return err
			}
			if err := r.pe.Put(t, in.A, r.pop()); err != nil {
				return rerr(in.Pos, err)
			}
		case OpStoreHeapArr:
			t, _, err := r.target(in)
			if err != nil {
				return err
			}
			v := r.pop()
			if v.Kind() != value.ArrayK {
				return rerrf(in.Pos, "cannot assign %s to array %s", v.Kind(), in.S)
			}
			if err := r.pe.PutArray(t, in.A, v.Array()); err != nil {
				return rerr(in.Pos, err)
			}
		case OpLoadElem:
			i, err := r.popInt(in.Pos)
			if err != nil {
				return err
			}
			t, remote, err := r.target(in)
			if err != nil {
				return err
			}
			var v value.Value
			if remote {
				v, err = r.pe.GetElem(t, in.A, i)
			} else {
				v, err = r.pe.LocalGetElem(in.A, i)
			}
			if err != nil {
				return rerr(in.Pos, err)
			}
			r.push(v)
		case OpStoreElem:
			i, err := r.popInt(in.Pos)
			if err != nil {
				return err
			}
			v := r.pop()
			t, remote, err := r.target(in)
			if err != nil {
				return err
			}
			if remote {
				err = r.pe.PutElem(t, in.A, i, v)
			} else {
				err = r.pe.LocalSetElem(in.A, i, v)
			}
			if err != nil {
				return rerr(in.Pos, err)
			}
		case OpLoadElemSlot:
			i, err := r.popInt(in.Pos)
			if err != nil {
				return err
			}
			av := slots[in.A]
			if av.Kind() != value.ArrayK {
				return rerrf(in.Pos, "%s is not an array", in.S)
			}
			v, err := av.Array().GetChecked(i)
			if err != nil {
				return rerr(in.Pos, err)
			}
			r.push(v)
		case OpStoreElemSlot:
			i, err := r.popInt(in.Pos)
			if err != nil {
				return err
			}
			v := r.pop()
			av := slots[in.A]
			if av.Kind() != value.ArrayK {
				return rerrf(in.Pos, "%s is not an array", in.S)
			}
			if err := av.Array().Set(i, v); err != nil {
				return rerr(in.Pos, err)
			}
		case OpDeclArrSlot:
			size, err := r.popSize(in)
			if err != nil {
				return err
			}
			arr, err := value.NewArrayOf(value.Kind(in.B), size)
			if err != nil {
				return rerr(in.Pos, err)
			}
			slots[in.A] = value.NewArray(arr)
		case OpDeclArrHeap:
			size, err := r.popSize(in)
			if err != nil {
				return err
			}
			if err := r.pe.AllocArray(in.A, size); err != nil {
				return rerr(in.Pos, err)
			}
		case OpInitHeap:
			if err := r.pe.InitScalar(in.A, r.pop()); err != nil {
				return rerr(in.Pos, err)
			}

		case OpUnary:
			t := &r.stack[len(r.stack)-1]
			if err := unInto(t, value.UnOp(in.A), t); err != nil {
				return rerr(in.Pos, err)
			}
		case OpCast:
			v, err := value.Cast(r.pop(), value.Kind(in.A))
			if err != nil {
				return rerr(in.Pos, err)
			}
			r.push(v)
		case OpTroof:
			r.push(value.NewTroof(r.pop().ToTroof()))
		case OpEqual:
			y, x := r.pop(), r.pop()
			r.push(value.NewTroof(value.Equal(x, y)))
		case OpConcat:
			vs := r.stack[len(r.stack)-in.A:]
			var b strings.Builder
			for _, v := range vs {
				b.WriteString(v.Display())
			}
			r.stack = r.stack[:len(r.stack)-in.A]
			r.push(value.NewYarn(b.String()))
		case OpSmoosh:
			vs := make([]value.Value, in.A)
			copy(vs, r.stack[len(r.stack)-in.A:])
			r.stack = r.stack[:len(r.stack)-in.A]
			v, err := value.Nary(value.OpSmoosh, vs)
			if err != nil {
				return rerr(in.Pos, err)
			}
			r.push(v)

		case OpJumpFalseKeep:
			if !r.stack[len(r.stack)-1].ToTroof() {
				ip = in.A
			}
		case OpJumpTrueKeep:
			if r.stack[len(r.stack)-1].ToTroof() {
				ip = in.A
			}

		case OpVisible:
			vs := r.stack[len(r.stack)-in.A:]
			var b strings.Builder
			for _, v := range vs {
				b.WriteString(v.Display())
			}
			r.stack = r.stack[:len(r.stack)-in.A]
			if in.B&visNoNewline == 0 {
				b.WriteByte('\n')
			}
			if in.B&visStderr != 0 {
				r.errw.WriteString(b.String())
			} else {
				r.out.WriteString(b.String())
			}
		case OpGimmeh:
			line, _ := r.stdin.Line()
			r.push(value.NewYarn(line))

		case OpBarrier:
			if err := r.pe.Barrier(); err != nil {
				if shmem.AsSuspend(err) != nil {
					// Park: rewind to this instruction and refund its
					// charge; the resumed step re-executes it (re-charging)
					// and the re-entered Barrier consumes the wakeup.
					r.meter.Refund(int64(in.W))
					fr.ip = ip - 1
					return err
				}
				return rerr(in.Pos, err)
			}
		case OpLockAcquire:
			if err := r.pe.SetLock(in.A); err != nil {
				if shmem.AsSuspend(err) != nil {
					r.meter.Refund(int64(in.W))
					fr.ip = ip - 1
					return err
				}
				return rerr(in.Pos, err)
			}
			slots[0] = value.NewTroof(true) // IT
		case OpLockTry:
			ok, err := r.pe.TestLock(in.A)
			if err != nil {
				return rerr(in.Pos, err)
			}
			slots[0] = value.NewTroof(ok) // IT
		case OpLockRelease:
			if err := r.pe.ClearLock(in.A); err != nil {
				return rerr(in.Pos, err)
			}
		case OpPredPush:
			n, err := r.pop().ToNumbr()
			if err != nil {
				return rerr(in.Pos, fmt.Errorf("TXT MAH BFF target: %w", err))
			}
			if n < 0 || n >= int64(r.pe.NPEs()) {
				return rerrf(in.Pos, "TXT MAH BFF %d: no such friend (MAH FRENZ is %d)", n, r.pe.NPEs())
			}
			r.pred = append(r.pred, int(n))
		case OpPredPop:
			r.pred = r.pred[:len(r.pred)-in.A]

		case OpMe:
			r.push(value.NewNumbr(int64(r.pe.ID())))
		case OpMahFrenz:
			r.push(value.NewNumbr(int64(r.pe.NPEs())))
		case OpWhatevr:
			// rand()-shaped: a non-negative 31-bit integer.
			r.push(value.NewNumbr(r.pe.Rand().Int63n(1 << 31)))
		case OpWhatevar:
			r.push(value.NewNumbar(r.pe.Rand().Float64()))

		case OpSrsLoad:
			sym, err := r.srsResolve(fr, in)
			if err != nil {
				return err
			}
			v, err := r.readSym(fr, sym, ast.Space(in.B), in.Pos)
			if err != nil {
				return err
			}
			r.push(v)
		case OpSrsStore:
			sym, err := r.srsResolve(fr, in)
			if err != nil {
				return err
			}
			if err := r.writeSym(fr, sym, ast.Space(in.B), in.Pos, r.pop()); err != nil {
				return err
			}

		case OpCall:
			if len(r.frames) > maxCallDepth {
				return rerrf(in.Pos, "I IZ %s: call depth exceeds %d (runaway recursion?)", in.S, maxCallDepth)
			}
			nf := newFrame(r.prog.Funcs[in.A])
			// Slot 0 is IT; parameters follow in declaration order.
			copy(nf.slots[1:1+in.B], r.stack[len(r.stack)-in.B:])
			r.stack = r.stack[:len(r.stack)-in.B]
			nf.stackBase, nf.predBase = len(r.stack), len(r.pred)
			// Sync the caller's ip before append may move the frame array.
			fr.ip = ip
			r.frames = append(r.frames, nf)
			fr = &r.frames[len(r.frames)-1]
			code, consts, slots, words, ip = fr.chunk.Code, fr.chunk.Consts, fr.slots, fr.words, 0
		case OpReturn:
			v := r.pop()
			fr = r.unwind(v)
			code, consts, slots, words, ip = fr.chunk.Code, fr.chunk.Consts, fr.slots, fr.words, fr.ip
		case OpReturnIT:
			fr = r.unwind(slots[0])
			code, consts, slots, words, ip = fr.chunk.Code, fr.chunk.Consts, fr.slots, fr.words, fr.ip

		case OpHalt:
			return nil

		default:
			return rerrf(in.Pos, "vm: unhandled opcode %v", in.Op)
		}
	}
}

// unwind pops the current frame, restores the caller's stack and
// predication watermarks, and pushes the return value.
func (r *runner) unwind(ret value.Value) *frame {
	top := r.frames[len(r.frames)-1]
	r.frames = r.frames[:len(r.frames)-1]
	r.stack = r.stack[:top.stackBase]
	r.pred = r.pred[:top.predBase]
	r.push(ret)
	return &r.frames[len(r.frames)-1]
}

// getScalar reads shared scalar heap[heap] of the local PE, or of the
// predication target when flags has flagRemote.
func (r *runner) getScalar(heap, flags int, pos token.Pos) (value.Value, error) {
	if flags&flagRemote == 0 {
		v, err := r.pe.LocalGet(heap)
		return v, rerr(pos, err)
	}
	t, err := r.predTarget(pos)
	if err != nil {
		return value.NOOB, err
	}
	v, err := r.pe.Get(t, heap)
	return v, rerr(pos, err)
}

// elemWord reads element i of shared array heap[in.C] of the target PE
// through shmem's typed one-sided gets.
func (r *runner) elemWord(in *Instr, i int) (uint64, error) {
	var u uint64
	var err error
	if in.D&flagRemote != 0 {
		t, terr := r.predTarget(in.Pos)
		if terr != nil {
			return 0, terr
		}
		if in.Op == OpWElemHeapI {
			var n int64
			n, err = r.pe.GetNumbr(t, in.C, i)
			u = uint64(n)
		} else {
			var f float64
			f, err = r.pe.GetNumbar(t, in.C, i)
			u = fw(f)
		}
	} else if in.Op == OpWElemHeapI {
		var n int64
		n, err = r.pe.LocalGetNumbr(in.C, i)
		u = uint64(n)
	} else {
		var f float64
		f, err = r.pe.LocalGetNumbar(in.C, i)
		u = fw(f)
	}
	return u, rerr(in.Pos, err)
}

// popSize pops an array size, rejecting negatives.
func (r *runner) popSize(in *Instr) (int, error) {
	n, err := r.pop().ToNumbr()
	if err != nil {
		return 0, rerr(in.Pos, fmt.Errorf("array size of %s: %w", in.S, err))
	}
	if n < 0 {
		return 0, rerrf(in.Pos, "array size of %s is negative (%d)", in.S, n)
	}
	return int(n), nil
}

// srsResolve pops a YARN name and resolves it in what the SRS can name.
func (r *runner) srsResolve(fr *frame, in *Instr) (*sema.Symbol, error) {
	name, err := r.pop().ToYarn()
	if err != nil {
		return nil, rerr(in.Pos, fmt.Errorf("SRS: %w", err))
	}
	sym, ok := fr.chunk.srs[in.A].Lookup(name)
	if !ok {
		return nil, rerrf(in.Pos, "SRS %q: no such variable", name)
	}
	return sym, nil
}

// readSym reads a runtime-resolved symbol (SRS), mirroring the
// interpreter's readVar.
func (r *runner) readSym(fr *frame, sym *sema.Symbol, sp ast.Space, pos token.Pos) (value.Value, error) {
	if isWord(sym) {
		if fr.slots[sym.Slot].Kind() == value.Noob {
			return value.NOOB, nil // not declared yet (see wordDecl)
		}
		return wordValue(fr.words[sym.Slot], repKind(sym)), nil
	}
	if sym.Kind != sema.SymShared {
		return fr.slots[sym.Slot], nil
	}
	if !sym.IsArray {
		return r.getScalar(sym.Heap, remoteFlag(sp), pos)
	}
	t := r.pe.ID()
	if sp == ast.SpaceUr {
		var err error
		if t, err = r.predTarget(pos); err != nil {
			return value.NOOB, err
		}
	}
	arr, err := r.pe.GetArray(t, sym.Heap)
	if err != nil {
		return value.NOOB, rerr(pos, err)
	}
	return value.NewArray(arr), nil
}

// writeSym writes a runtime-resolved symbol (SRS), mirroring the
// interpreter's writeVar.
func (r *runner) writeSym(fr *frame, sym *sema.Symbol, sp ast.Space, pos token.Pos, v value.Value) error {
	if sym.Static && !sym.IsArray {
		cv, err := value.Cast(v, sym.Type)
		if err != nil {
			return rerr(pos, fmt.Errorf("assigning to SRSLY %s %s: %w", sym.Type, sym.Name, err))
		}
		v = cv
	}
	if isWord(sym) {
		u, err := unbox(v, repKind(sym), sym.Name)
		if err != nil {
			return rerr(pos, err)
		}
		fr.words[sym.Slot] = u
		fr.slots[sym.Slot] = value.NewTroof(true) // now readable (see wordDecl)
		return nil
	}
	if sym.Kind != sema.SymShared {
		if sym.IsArray && v.Kind() == value.ArrayK {
			if cur := fr.slots[sym.Slot]; cur.Kind() == value.ArrayK {
				return rerr(pos, cur.Array().CopyFrom(v.Array()))
			}
		}
		fr.slots[sym.Slot] = v
		return nil
	}
	t := r.pe.ID()
	if sp == ast.SpaceUr {
		var err error
		if t, err = r.predTarget(pos); err != nil {
			return err
		}
	}
	if sym.IsArray {
		if v.Kind() != value.ArrayK {
			return rerrf(pos, "cannot assign %s to array %s", v.Kind(), sym.Name)
		}
		return rerr(pos, r.pe.PutArray(t, sym.Heap, v.Array()))
	}
	return rerr(pos, r.pe.Put(t, sym.Heap, v))
}
