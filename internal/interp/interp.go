// Package interp is the tree-walking interpreter backend: it executes a
// semantically checked parallel-LOLCODE program directly over the shmem
// SPMD runtime, one evaluator per PE.
//
// The paper argues a compiler is "more flexible and efficient than an
// interpreter"; this backend is the baseline side of that comparison (see
// internal/compile for the compiled backend and the E1 experiment).
package interp

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

// Config, Result and RuntimeError are shared by every execution backend;
// they live in internal/backend and are aliased here for the package's
// historical callers.
type (
	Config       = backend.Config
	Result       = backend.Result
	RuntimeError = backend.RuntimeError
)

// engine implements backend.Backend.
type engine struct{}

func (engine) Name() string { return "interp" }

func (engine) Run(info *sema.Info, cfg Config) (*Result, error) { return Run(info, cfg) }

func init() { backend.Register(engine{}) }

func rerr(pos token.Pos, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*RuntimeError); ok {
		return err
	}
	return &RuntimeError{Pos: pos, Err: err}
}

func rerrf(pos token.Pos, format string, args ...any) error {
	return &RuntimeError{Pos: pos, Err: fmt.Errorf(format, args...)}
}

// Run executes the checked program under cfg and returns run statistics.
func Run(info *sema.Info, cfg Config) (*Result, error) {
	if cfg.NP <= 0 {
		cfg.NP = 1
	}
	world, err := NewWorld(info, cfg)
	if err != nil {
		return nil, err
	}
	return RunWorld(info, cfg, world)
}

// NewWorld builds the shmem world implied by the program's symmetric
// symbols; exposed so benchmarks can reuse worlds and inspect models.
func NewWorld(info *sema.Info, cfg Config) (*shmem.World, error) {
	return backend.NewWorld(info, cfg)
}

// RunWorld executes the program on an existing world.
func RunWorld(info *sema.Info, cfg Config, world *shmem.World) (*Result, error) {
	return backend.RunSPMD(cfg, world, func(pe *shmem.PE, io backend.PEIO) error {
		ev := &evaluator{
			info:  info,
			pe:    pe,
			out:   io.Out,
			errw:  io.Err,
			stdin: io.Stdin,
			meter: backend.NewMeter(&cfg),
		}
		ev.frame = newFrame(len(info.Main.Order))
		return ev.execBlock(info.Prog.Body)
	})
}

// frame is one activation record: a value per symbol slot. Arrays are
// values of kind ArrayK; shared symbols keep their storage in the shmem
// heap and leave their slot unused.
type frame struct {
	slots []value.Value
}

func newFrame(n int) *frame { return &frame{slots: make([]value.Value, n)} }

// ctrl is the statement-level control-flow signal.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlReturn
)

// evaluator runs one PE's program.
type evaluator struct {
	info  *sema.Info
	pe    *shmem.PE
	frame *frame
	out   *PEWriter
	errw  *PEWriter
	stdin *SharedReader

	// pred is the TXT MAH BFF predication stack of target PE ids.
	pred []int

	// retval carries the FOUND YR value while ctrlReturn unwinds.
	retval value.Value

	// meter enforces the run's deadline and step budget; one interpreter
	// step is one executed statement (plus one per loop iteration, so an
	// empty-bodied loop still meters).
	meter backend.Meter

	callDepth int
}

const maxCallDepth = 10_000

// predTarget returns the active predication target.
func (ev *evaluator) predTarget(pos token.Pos) (int, error) {
	if len(ev.pred) == 0 {
		return 0, rerrf(pos, "UR used outside of TXT MAH BFF predication")
	}
	return ev.pred[len(ev.pred)-1], nil
}

func (ev *evaluator) execBlock(ss []ast.Stmt) error {
	for _, s := range ss {
		c, err := ev.exec(s)
		if err != nil {
			return err
		}
		if c != ctrlNone {
			return rerrf(s.Pos(), "GTFO or FOUND YR escaped its enclosing construct")
		}
	}
	return nil
}

// execStmts runs statements, propagating control signals to the caller.
func (ev *evaluator) execStmts(ss []ast.Stmt) (ctrl, error) {
	for _, s := range ss {
		c, err := ev.exec(s)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

func (ev *evaluator) exec(s ast.Stmt) (ctrl, error) {
	if err := ev.meter.Step(); err != nil {
		return ctrlNone, rerr(s.Pos(), err)
	}
	switch n := s.(type) {
	case *ast.Decl:
		return ctrlNone, ev.execDecl(n)
	case *ast.Assign:
		v, err := ev.eval(n.Value)
		if err != nil {
			return ctrlNone, err
		}
		return ctrlNone, ev.assign(n.Target, v)
	case *ast.CastStmt:
		return ctrlNone, ev.execCast(n)
	case *ast.Visible:
		return ctrlNone, ev.execVisible(n)
	case *ast.Gimmeh:
		line, _ := ev.stdin.Line()
		return ctrlNone, ev.assign(n.Target, value.NewYarn(line))
	case *ast.ExprStmt:
		v, err := ev.eval(n.X)
		if err != nil {
			return ctrlNone, err
		}
		ev.setIT(v)
		return ctrlNone, nil
	case *ast.If:
		return ev.execIf(n)
	case *ast.Switch:
		return ev.execSwitch(n)
	case *ast.Loop:
		return ev.execLoop(n)
	case *ast.Gtfo:
		if ev.callDepth > 0 {
			// Inside a function GTFO may be a bare return; the loop/switch
			// handlers intercept ctrlBreak first, so break semantics win
			// when applicable.
			return ctrlBreak, nil
		}
		return ctrlBreak, nil
	case *ast.FoundYr:
		v, err := ev.eval(n.X)
		if err != nil {
			return ctrlNone, err
		}
		ev.retval = v
		return ctrlReturn, nil
	case *ast.FuncDecl:
		return ctrlNone, nil // hoisted; nothing to execute
	case *ast.Barrier:
		return ctrlNone, rerr(n.Position, ev.pe.Barrier())
	case *ast.Lock:
		return ctrlNone, ev.execLock(n)
	case *ast.TxtStmt:
		target, err := ev.evalPE(n.Target)
		if err != nil {
			return ctrlNone, err
		}
		ev.pred = append(ev.pred, target)
		c, err := ev.exec(n.Stmt)
		ev.pred = ev.pred[:len(ev.pred)-1]
		return c, err
	case *ast.TxtBlock:
		target, err := ev.evalPE(n.Target)
		if err != nil {
			return ctrlNone, err
		}
		ev.pred = append(ev.pred, target)
		c, err := ev.execStmts(n.Body)
		ev.pred = ev.pred[:len(ev.pred)-1]
		return c, err
	}
	return ctrlNone, rerrf(s.Pos(), "interp: unhandled statement %T", s)
}

func (ev *evaluator) execDecl(n *ast.Decl) error {
	sym, _ := n.Sym.(*sema.Symbol)
	if sym == nil {
		return rerrf(n.Position, "undeclared symbol %s survived sema", n.Name)
	}

	if n.IsArray {
		sizeV, err := ev.eval(n.Size)
		if err != nil {
			return err
		}
		size64, err := sizeV.ToNumbr()
		if err != nil {
			return rerr(n.Position, fmt.Errorf("array size of %s: %w", n.Name, err))
		}
		if size64 < 0 {
			return rerrf(n.Position, "array size of %s is negative (%d)", n.Name, size64)
		}
		if sym.Kind == sema.SymShared {
			return rerr(n.Position, ev.pe.AllocArray(sym.Heap, int(size64)))
		}
		arr, err := value.NewArrayOf(n.Type, int(size64))
		if err != nil {
			return rerr(n.Position, err)
		}
		ev.frame.slots[sym.Slot] = value.NewArray(arr)
		return nil
	}

	init := value.NOOB
	if n.Typed {
		z, err := value.Cast(value.NOOB, n.Type)
		if err != nil {
			return rerr(n.Position, err)
		}
		init = z
	}
	if n.Init != nil {
		v, err := ev.eval(n.Init)
		if err != nil {
			return err
		}
		init = v
		if sym.Static {
			cv, err := value.Cast(v, sym.Type)
			if err != nil {
				return rerr(n.Position, fmt.Errorf("initializing SRSLY %s %s: %w", sym.Type, n.Name, err))
			}
			init = cv
		}
	}
	if sym.Kind == sema.SymShared {
		return rerr(n.Position, ev.pe.InitScalar(sym.Heap, init))
	}
	ev.frame.slots[sym.Slot] = init
	return nil
}

func (ev *evaluator) execCast(n *ast.CastStmt) error {
	cur, err := ev.readTarget(n.Target)
	if err != nil {
		return err
	}
	cv, err := value.Cast(cur, n.Type)
	if err != nil {
		return rerr(n.Position, err)
	}
	return ev.assign(n.Target, cv)
}

func (ev *evaluator) execVisible(n *ast.Visible) error {
	var b strings.Builder
	for _, a := range n.Args {
		v, err := ev.eval(a)
		if err != nil {
			return err
		}
		b.WriteString(v.Display())
	}
	if !n.NoNewline {
		b.WriteByte('\n')
	}
	if n.Invisible {
		ev.errw.WriteString(b.String())
	} else {
		ev.out.WriteString(b.String())
	}
	return nil
}

func (ev *evaluator) execIf(n *ast.If) (ctrl, error) {
	it := ev.getIT()
	if it.ToTroof() {
		return ev.execStmts(n.Then)
	}
	for _, m := range n.Mebbes {
		v, err := ev.eval(m.Cond)
		if err != nil {
			return ctrlNone, err
		}
		ev.setIT(v)
		if v.ToTroof() {
			return ev.execStmts(m.Body)
		}
	}
	if n.Else != nil {
		return ev.execStmts(n.Else)
	}
	return ctrlNone, nil
}

func (ev *evaluator) execSwitch(n *ast.Switch) (ctrl, error) {
	it := ev.getIT()
	start := -1
	for i, cs := range n.Cases {
		lit, err := ev.eval(cs.Lit)
		if err != nil {
			return ctrlNone, err
		}
		if value.Equal(it, lit) {
			start = i
			break
		}
	}
	runDefault := start < 0
	if start >= 0 {
		// LOLCODE cases fall through to subsequent OMG bodies until GTFO.
		for i := start; i < len(n.Cases); i++ {
			c, err := ev.execStmts(n.Cases[i].Body)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
		}
		runDefault = false // fell off the last case
	}
	if runDefault && n.Default != nil {
		c, err := ev.execStmts(n.Default)
		if err != nil {
			return ctrlNone, err
		}
		if c == ctrlBreak {
			return ctrlNone, nil
		}
		return c, nil
	}
	return ctrlNone, nil
}

func (ev *evaluator) execLoop(n *ast.Loop) (ctrl, error) {
	var sym *sema.Symbol
	var saved value.Value
	if n.Var != "" {
		sym, _ = n.Sym.(*sema.Symbol)
		if sym == nil {
			return ctrlNone, rerrf(n.Position, "loop variable %s not resolved", n.Var)
		}
		saved = ev.frame.slots[sym.Slot]
		// The loop counter always starts at 0 (lci semantics; the paper's
		// n-body reuses `i` across several loops relying on this reset).
		ev.frame.slots[sym.Slot] = value.NewNumbr(0)
		defer func() {
			if sym.Kind == sema.SymLoopVar {
				ev.frame.slots[sym.Slot] = saved
			}
		}()
	}

	// Body statements meter themselves in exec; only an empty body needs a
	// back-edge tick so a degenerate spin loop still hits the budget.
	meterEdge := len(n.Body) == 0
	for iter := 0; ; iter++ {
		if meterEdge {
			if err := ev.meter.Step(); err != nil {
				return ctrlNone, rerr(n.Position, err)
			}
		}
		if n.Cond != nil {
			cv, err := ev.eval(n.Cond)
			if err != nil {
				return ctrlNone, err
			}
			stop := cv.ToTroof()
			if n.CondKind == ast.CondWile {
				stop = !stop
			}
			if stop {
				return ctrlNone, nil
			}
		}
		c, err := ev.execStmts(n.Body)
		if err != nil {
			return ctrlNone, err
		}
		if c == ctrlBreak {
			return ctrlNone, nil
		}
		if c == ctrlReturn {
			return c, nil
		}
		if sym != nil {
			cur, err := ev.frame.slots[sym.Slot].ToNumbr()
			if err != nil {
				return ctrlNone, rerr(n.Position, fmt.Errorf("loop variable %s: %w", n.Var, err))
			}
			if n.Op == ast.LoopNerfin {
				cur--
			} else {
				cur++
			}
			ev.frame.slots[sym.Slot] = value.NewNumbr(cur)
		}
	}
}

func (ev *evaluator) execLock(n *ast.Lock) error {
	sym := ev.symbolFor(n.Var)
	if sym == nil || sym.Lock < 0 {
		return rerrf(n.Position, "%v: %s has no lock", n.Action, n.Var.Name)
	}
	switch n.Action {
	case ast.LockAcquire:
		if err := ev.pe.SetLock(sym.Lock); err != nil {
			return rerr(n.Position, err)
		}
		ev.setIT(value.NewTroof(true))
	case ast.LockTry:
		ok, err := ev.pe.TestLock(sym.Lock)
		if err != nil {
			return rerr(n.Position, err)
		}
		ev.setIT(value.NewTroof(ok))
	case ast.LockRelease:
		if err := ev.pe.ClearLock(sym.Lock); err != nil {
			return rerr(n.Position, err)
		}
	}
	return nil
}

// call invokes a HOW IZ I function.
func (ev *evaluator) call(n *ast.Call) (value.Value, error) {
	fi := ev.info.Funcs[n.Name]
	if fi == nil {
		return value.NOOB, rerrf(n.Position, "I IZ %s: no such function", n.Name)
	}
	if ev.callDepth >= maxCallDepth {
		return value.NOOB, rerrf(n.Position, "I IZ %s: call depth exceeds %d (runaway recursion?)", n.Name, maxCallDepth)
	}
	args := make([]value.Value, len(n.Args))
	for i, a := range n.Args {
		v, err := ev.eval(a)
		if err != nil {
			return value.NOOB, err
		}
		args[i] = v
	}

	savedFrame := ev.frame
	ev.frame = newFrame(len(fi.Scope.Order))
	ev.callDepth++
	// Slot 0 is IT; parameters follow in declaration order.
	for i := range args {
		ev.frame.slots[i+1] = args[i]
	}

	c, err := ev.execStmts(fi.Decl.Body)
	ret := value.NOOB
	switch {
	case err != nil:
	case c == ctrlReturn:
		ret = ev.retval
	case c == ctrlBreak:
		ret = value.NOOB // GTFO from a function returns NOOB
	default:
		ret = ev.getIT() // falling off the end returns IT
	}

	ev.callDepth--
	ev.frame = savedFrame
	return ret, err
}

func (ev *evaluator) setIT(v value.Value) { ev.frame.slots[0] = v }
func (ev *evaluator) getIT() value.Value  { return ev.frame.slots[0] }
