// Package compile is the compiled execution backend: it lowers a checked
// parallel-LOLCODE program into a tree of Go closures once, then runs that
// closure program SPMD over the shmem runtime.
//
// Compilation resolves all symbols, slots, static casts and operator
// dispatch ahead of time, so the per-statement interpreter overhead (AST
// type switches, map lookups) disappears. This is the repository's analog
// of the paper's lcc pipeline being "more flexible and efficient than an
// interpreter" (experiment E1 measures the gap); internal/gogen additionally
// emits real Go source the way lcc emitted C.
package compile

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/interp"
	"repro/internal/sema"
	"repro/internal/shmem"
	"repro/internal/token"
	"repro/internal/value"
)

// engine implements backend.Backend. It recompiles on every Run; callers
// that run one program repeatedly should hold a Program (core.Program
// caches one per engine).
type engine struct{}

func (engine) Name() string { return "compile" }

func (engine) Run(info *sema.Info, cfg interp.Config) (*interp.Result, error) {
	p, err := Compile(info)
	if err != nil {
		return nil, err
	}
	return p.Run(cfg)
}

func init() { backend.Register(engine{}) }

// ctrl is the statement-level control-flow signal.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlReturn
)

// stmtFn executes one compiled statement on a PE's environment.
type stmtFn func(*env) (ctrl, error)

// exprFn evaluates one compiled expression.
type exprFn func(*env) (value.Value, error)

// assignFn stores a value into a compiled assignment target.
type assignFn func(*env, value.Value) error

// Program is a compiled parallel-LOLCODE program, safe for concurrent runs.
type Program struct {
	info  *sema.Info
	main  []stmtFn
	funcs map[string]*compiledFunc
}

type compiledFunc struct {
	decl   *ast.FuncDecl
	body   []stmtFn
	nSlots int
}

// env is the per-PE runtime state of a compiled program.
type env struct {
	prog  *Program
	pe    *shmem.PE
	frame []value.Value

	pred      []int
	retval    value.Value
	callDepth int

	// meter enforces the run's deadline and step budget. Straight-line
	// closure code runs unmetered (it terminates by construction); one
	// compiled step is one loop back-edge or one barrier, the program
	// points where execution time and blocking can become unbounded.
	meter backend.Meter

	out   *interp.PEWriter
	errw  *interp.PEWriter
	stdin *interp.SharedReader
}

const maxCallDepth = 10_000

func (e *env) predTarget(pos token.Pos) (int, error) {
	if len(e.pred) == 0 {
		return 0, rerrf(pos, "UR used outside of TXT MAH BFF predication")
	}
	return e.pred[len(e.pred)-1], nil
}

func rerr(pos token.Pos, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*interp.RuntimeError); ok {
		return err
	}
	return &interp.RuntimeError{Pos: pos, Err: err}
}

func rerrf(pos token.Pos, format string, args ...any) error {
	return &interp.RuntimeError{Pos: pos, Err: fmt.Errorf(format, args...)}
}

// Options tunes compilation. The zero value is the production
// configuration.
type Options struct {
	// DisableSpecialization turns off the typed fast paths (specialize.go),
	// leaving the purely generic closure lowering. Exists for the ablation
	// benchmarks that quantify what static typing buys the backend.
	DisableSpecialization bool
}

// Compile lowers a checked program with default options.
func Compile(info *sema.Info) (*Program, error) {
	return CompileOpts(info, Options{})
}

// CompileOpts lowers a checked program with explicit options.
func CompileOpts(info *sema.Info, opts Options) (*Program, error) {
	p := &Program{info: info, funcs: make(map[string]*compiledFunc)}
	c := &compiler{prog: p, info: info, noSpec: opts.DisableSpecialization}

	for name, fi := range info.Funcs {
		cf := &compiledFunc{decl: fi.Decl, nSlots: len(fi.Scope.Order)}
		p.funcs[name] = cf
	}
	// Compile bodies after headers exist so calls resolve in any order.
	for name, fi := range info.Funcs {
		c.scope = fi.Scope
		body, err := c.stmts(fi.Decl.Body)
		if err != nil {
			return nil, err
		}
		p.funcs[name].body = body
	}
	c.scope = info.Main
	main, err := c.stmts(info.Prog.Body)
	if err != nil {
		return nil, err
	}
	p.main = main
	return p, nil
}

// Run executes the compiled program under cfg.
func (p *Program) Run(cfg interp.Config) (*interp.Result, error) {
	if cfg.NP <= 0 {
		cfg.NP = 1
	}
	world, err := interp.NewWorld(p.info, cfg)
	if err != nil {
		return nil, err
	}
	return p.RunWorld(cfg, world)
}

// RunWorld executes the compiled program on an existing world.
func (p *Program) RunWorld(cfg interp.Config, world *shmem.World) (*interp.Result, error) {
	return backend.RunSPMD(cfg, world, func(pe *shmem.PE, io backend.PEIO) error {
		e := &env{
			prog:  p,
			pe:    pe,
			frame: make([]value.Value, len(p.info.Main.Order)),
			meter: backend.NewMeter(&cfg),
			out:   io.Out,
			errw:  io.Err,
			stdin: io.Stdin,
		}
		for _, fn := range p.main {
			c, err := fn(e)
			if err != nil {
				return err
			}
			if c != ctrlNone {
				return fmt.Errorf("GTFO or FOUND YR escaped the main program")
			}
		}
		return nil
	})
}

// compiler holds compile-time state.
type compiler struct {
	prog   *Program
	info   *sema.Info
	scope  *sema.Scope
	noSpec bool // disable typed fast paths (ablation)
}

func (c *compiler) stmts(ss []ast.Stmt) ([]stmtFn, error) {
	out := make([]stmtFn, 0, len(ss))
	for _, s := range ss {
		fn, err := c.stmt(s)
		if err != nil {
			return nil, err
		}
		if fn != nil {
			out = append(out, fn)
		}
	}
	return out, nil
}

func runStmts(e *env, fns []stmtFn) (ctrl, error) {
	for _, fn := range fns {
		c, err := fn(e)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

func (c *compiler) stmt(s ast.Stmt) (stmtFn, error) {
	switch n := s.(type) {
	case *ast.Decl:
		return c.decl(n)

	case *ast.Assign:
		if !c.noSpec {
			if fn, ok := c.specializedAssign(n); ok {
				return fn, nil
			}
		}
		val, err := c.expr(n.Value)
		if err != nil {
			return nil, err
		}
		store, err := c.assignTarget(n.Target)
		if err != nil {
			return nil, err
		}
		return func(e *env) (ctrl, error) {
			v, err := val(e)
			if err != nil {
				return ctrlNone, err
			}
			return ctrlNone, store(e, v)
		}, nil

	case *ast.CastStmt:
		load, err := c.readTarget(n.Target)
		if err != nil {
			return nil, err
		}
		store, err := c.assignTarget(n.Target)
		if err != nil {
			return nil, err
		}
		typ := n.Type
		pos := n.Position
		return func(e *env) (ctrl, error) {
			cur, err := load(e)
			if err != nil {
				return ctrlNone, err
			}
			cv, err := value.Cast(cur, typ)
			if err != nil {
				return ctrlNone, rerr(pos, err)
			}
			return ctrlNone, store(e, cv)
		}, nil

	case *ast.Visible:
		args := make([]exprFn, len(n.Args))
		for i, a := range n.Args {
			fn, err := c.expr(a)
			if err != nil {
				return nil, err
			}
			args[i] = fn
		}
		newline := !n.NoNewline
		invisible := n.Invisible
		return func(e *env) (ctrl, error) {
			var b strings.Builder
			for _, fn := range args {
				v, err := fn(e)
				if err != nil {
					return ctrlNone, err
				}
				b.WriteString(v.Display())
			}
			if newline {
				b.WriteByte('\n')
			}
			if invisible {
				e.errw.WriteString(b.String())
			} else {
				e.out.WriteString(b.String())
			}
			return ctrlNone, nil
		}, nil

	case *ast.Gimmeh:
		store, err := c.assignTarget(n.Target)
		if err != nil {
			return nil, err
		}
		return func(e *env) (ctrl, error) {
			line, _ := e.stdin.Line()
			return ctrlNone, store(e, value.NewYarn(line))
		}, nil

	case *ast.ExprStmt:
		fn, err := c.expr(n.X)
		if err != nil {
			return nil, err
		}
		return func(e *env) (ctrl, error) {
			v, err := fn(e)
			if err != nil {
				return ctrlNone, err
			}
			e.frame[0] = v // IT
			return ctrlNone, nil
		}, nil

	case *ast.If:
		return c.ifStmt(n)

	case *ast.Switch:
		return c.switchStmt(n)

	case *ast.Loop:
		return c.loop(n)

	case *ast.Gtfo:
		return func(*env) (ctrl, error) { return ctrlBreak, nil }, nil

	case *ast.FoundYr:
		fn, err := c.expr(n.X)
		if err != nil {
			return nil, err
		}
		return func(e *env) (ctrl, error) {
			v, err := fn(e)
			if err != nil {
				return ctrlNone, err
			}
			e.retval = v
			return ctrlReturn, nil
		}, nil

	case *ast.FuncDecl:
		return nil, nil // hoisted

	case *ast.Barrier:
		pos := n.Position
		return func(e *env) (ctrl, error) {
			if err := e.meter.Step(); err != nil {
				return ctrlNone, rerr(pos, err)
			}
			return ctrlNone, rerr(pos, e.pe.Barrier())
		}, nil

	case *ast.Lock:
		return c.lock(n)

	case *ast.TxtStmt:
		target, err := c.peExpr(n.Target)
		if err != nil {
			return nil, err
		}
		inner, err := c.stmt(n.Stmt)
		if err != nil {
			return nil, err
		}
		if inner == nil {
			inner = func(*env) (ctrl, error) { return ctrlNone, nil }
		}
		return func(e *env) (ctrl, error) {
			t, err := target(e)
			if err != nil {
				return ctrlNone, err
			}
			e.pred = append(e.pred, t)
			ctl, err := inner(e)
			e.pred = e.pred[:len(e.pred)-1]
			return ctl, err
		}, nil

	case *ast.TxtBlock:
		target, err := c.peExpr(n.Target)
		if err != nil {
			return nil, err
		}
		body, err := c.stmts(n.Body)
		if err != nil {
			return nil, err
		}
		return func(e *env) (ctrl, error) {
			t, err := target(e)
			if err != nil {
				return ctrlNone, err
			}
			e.pred = append(e.pred, t)
			ctl, err := runStmts(e, body)
			e.pred = e.pred[:len(e.pred)-1]
			return ctl, err
		}, nil
	}
	return nil, fmt.Errorf("compile: unhandled statement %T at %s", s, s.Pos())
}

func (c *compiler) decl(n *ast.Decl) (stmtFn, error) {
	sym, _ := n.Sym.(*sema.Symbol)
	if sym == nil {
		return nil, fmt.Errorf("compile: %s: unresolved declaration %s", n.Position, n.Name)
	}
	pos := n.Position

	if n.IsArray {
		size, err := c.expr(n.Size)
		if err != nil {
			return nil, err
		}
		elem := n.Type
		if sym.Kind == sema.SymShared {
			heap := sym.Heap
			return func(e *env) (ctrl, error) {
				sz, err := evalSize(e, size, pos, n.Name)
				if err != nil {
					return ctrlNone, err
				}
				return ctrlNone, rerr(pos, e.pe.AllocArray(heap, sz))
			}, nil
		}
		slot := sym.Slot
		return func(e *env) (ctrl, error) {
			sz, err := evalSize(e, size, pos, n.Name)
			if err != nil {
				return ctrlNone, err
			}
			arr, err := value.NewArrayOf(elem, sz)
			if err != nil {
				return ctrlNone, rerr(pos, err)
			}
			e.frame[slot] = value.NewArray(arr)
			return ctrlNone, nil
		}, nil
	}

	var init exprFn
	if n.Init != nil {
		fn, err := c.expr(n.Init)
		if err != nil {
			return nil, err
		}
		init = fn
	}
	zero := value.NOOB
	if n.Typed {
		z, err := value.Cast(value.NOOB, n.Type)
		if err != nil {
			return nil, err
		}
		zero = z
	}
	static, styp := sym.Static, sym.Type

	eval := func(e *env) (value.Value, error) {
		v := zero
		if init != nil {
			iv, err := init(e)
			if err != nil {
				return value.NOOB, err
			}
			v = iv
			if static {
				cv, err := value.Cast(v, styp)
				if err != nil {
					return value.NOOB, rerr(pos, err)
				}
				v = cv
			}
		}
		return v, nil
	}

	if sym.Kind == sema.SymShared {
		heap := sym.Heap
		return func(e *env) (ctrl, error) {
			v, err := eval(e)
			if err != nil {
				return ctrlNone, err
			}
			return ctrlNone, rerr(pos, e.pe.InitScalar(heap, v))
		}, nil
	}
	slot := sym.Slot
	return func(e *env) (ctrl, error) {
		v, err := eval(e)
		if err != nil {
			return ctrlNone, err
		}
		e.frame[slot] = v
		return ctrlNone, nil
	}, nil
}

func evalSize(e *env, size exprFn, pos token.Pos, name string) (int, error) {
	sv, err := size(e)
	if err != nil {
		return 0, err
	}
	n, err := sv.ToNumbr()
	if err != nil {
		return 0, rerr(pos, fmt.Errorf("array size of %s: %w", name, err))
	}
	if n < 0 {
		return 0, rerrf(pos, "array size of %s is negative (%d)", name, n)
	}
	return int(n), nil
}

func (c *compiler) ifStmt(n *ast.If) (stmtFn, error) {
	thenB, err := c.stmts(n.Then)
	if err != nil {
		return nil, err
	}
	type mebbe struct {
		cond exprFn
		body []stmtFn
	}
	mebbes := make([]mebbe, len(n.Mebbes))
	for i, m := range n.Mebbes {
		cond, err := c.expr(m.Cond)
		if err != nil {
			return nil, err
		}
		body, err := c.stmts(m.Body)
		if err != nil {
			return nil, err
		}
		mebbes[i] = mebbe{cond, body}
	}
	var elseB []stmtFn
	if n.Else != nil {
		elseB, err = c.stmts(n.Else)
		if err != nil {
			return nil, err
		}
	}
	hasElse := n.Else != nil
	return func(e *env) (ctrl, error) {
		if e.frame[0].ToTroof() {
			return runStmts(e, thenB)
		}
		for i := range mebbes {
			v, err := mebbes[i].cond(e)
			if err != nil {
				return ctrlNone, err
			}
			e.frame[0] = v
			if v.ToTroof() {
				return runStmts(e, mebbes[i].body)
			}
		}
		if hasElse {
			return runStmts(e, elseB)
		}
		return ctrlNone, nil
	}, nil
}

func (c *compiler) switchStmt(n *ast.Switch) (stmtFn, error) {
	lits := make([]exprFn, len(n.Cases))
	bodies := make([][]stmtFn, len(n.Cases))
	for i, cs := range n.Cases {
		lit, err := c.expr(cs.Lit)
		if err != nil {
			return nil, err
		}
		body, err := c.stmts(cs.Body)
		if err != nil {
			return nil, err
		}
		lits[i], bodies[i] = lit, body
	}
	var def []stmtFn
	hasDefault := n.Default != nil
	if hasDefault {
		d, err := c.stmts(n.Default)
		if err != nil {
			return nil, err
		}
		def = d
	}
	return func(e *env) (ctrl, error) {
		it := e.frame[0]
		start := -1
		for i := range lits {
			lv, err := lits[i](e)
			if err != nil {
				return ctrlNone, err
			}
			if value.Equal(it, lv) {
				start = i
				break
			}
		}
		if start >= 0 {
			for i := start; i < len(bodies); i++ {
				ctl, err := runStmts(e, bodies[i])
				if err != nil {
					return ctrlNone, err
				}
				if ctl == ctrlBreak {
					return ctrlNone, nil
				}
				if ctl == ctrlReturn {
					return ctl, nil
				}
			}
			return ctrlNone, nil
		}
		if hasDefault {
			ctl, err := runStmts(e, def)
			if err != nil {
				return ctrlNone, err
			}
			if ctl == ctrlBreak {
				return ctrlNone, nil
			}
			return ctl, nil
		}
		return ctrlNone, nil
	}, nil
}

func (c *compiler) loop(n *ast.Loop) (stmtFn, error) {
	body, err := c.stmts(n.Body)
	if err != nil {
		return nil, err
	}
	if !c.noSpec {
		if fn, ok := c.specializedLoop(n, body); ok {
			return fn, nil
		}
	}
	var cond exprFn
	if n.Cond != nil {
		cond, err = c.expr(n.Cond)
		if err != nil {
			return nil, err
		}
	}
	condTil := n.CondKind == ast.CondTil
	nerfin := n.Op == ast.LoopNerfin
	pos := n.Position
	varName := n.Var

	slot := -1
	isImplicit := false
	if n.Var != "" {
		sym, _ := n.Sym.(*sema.Symbol)
		if sym == nil {
			return nil, fmt.Errorf("compile: %s: unresolved loop variable %s", n.Position, n.Var)
		}
		slot = sym.Slot
		isImplicit = sym.Kind == sema.SymLoopVar
	}

	return func(e *env) (ctrl, error) {
		var saved value.Value
		if slot >= 0 {
			saved = e.frame[slot]
			e.frame[slot] = value.NewNumbr(0)
			if isImplicit {
				defer func() { e.frame[slot] = saved }()
			}
		}
		for {
			if err := e.meter.Step(); err != nil {
				return ctrlNone, rerr(pos, err)
			}
			if cond != nil {
				cv, err := cond(e)
				if err != nil {
					return ctrlNone, err
				}
				stop := cv.ToTroof()
				if !condTil {
					stop = !stop
				}
				if stop {
					return ctrlNone, nil
				}
			}
			ctl, err := runStmts(e, body)
			if err != nil {
				return ctrlNone, err
			}
			if ctl == ctrlBreak {
				return ctrlNone, nil
			}
			if ctl == ctrlReturn {
				return ctl, nil
			}
			if slot >= 0 {
				cur, err := e.frame[slot].ToNumbr()
				if err != nil {
					return ctrlNone, rerr(pos, fmt.Errorf("loop variable %s: %w", varName, err))
				}
				if nerfin {
					cur--
				} else {
					cur++
				}
				e.frame[slot] = value.NewNumbr(cur)
			}
		}
	}, nil
}

func (c *compiler) lock(n *ast.Lock) (stmtFn, error) {
	sym, _ := n.Var.Sym.(*sema.Symbol)
	if sym == nil || sym.Lock < 0 {
		return nil, fmt.Errorf("compile: %s: %v on %s without a lock", n.Position, n.Action, n.Var.Name)
	}
	id := sym.Lock
	pos := n.Position
	switch n.Action {
	case ast.LockAcquire:
		return func(e *env) (ctrl, error) {
			if err := e.pe.SetLock(id); err != nil {
				return ctrlNone, rerr(pos, err)
			}
			e.frame[0] = value.NewTroof(true)
			return ctrlNone, nil
		}, nil
	case ast.LockTry:
		return func(e *env) (ctrl, error) {
			ok, err := e.pe.TestLock(id)
			if err != nil {
				return ctrlNone, rerr(pos, err)
			}
			e.frame[0] = value.NewTroof(ok)
			return ctrlNone, nil
		}, nil
	default: // LockRelease
		return func(e *env) (ctrl, error) {
			return ctrlNone, rerr(pos, e.pe.ClearLock(id))
		}, nil
	}
}
