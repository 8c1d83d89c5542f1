// Package sema performs semantic analysis over a parsed parallel-LOLCODE
// program: symbol resolution, scope construction, and the legality rules of
// the paper's SPMD/PGAS extensions (symmetric declarations must be
// collective, UR/MAH only under TXT MAH BFF predication, locks only on
// IM SHARIN IT symbols).
//
// The analysis also assigns frame slots to every symbol and a symmetric
// heap index to every WE HAS A symbol; the interpreter, the closure
// compiler and the Go emitter all consume this layout, which is exactly the
// per-PE symmetric layout of the paper's Figure 1.
//
// Finally it decides which scalars have a static kind: the facts that let
// a compiler lower the paper's SRSLY variables ("a transition to a
// compiled ... language", §II.B) to typed code. Each frame symbol gets a
// Rep. A private scalar is RepInt or RepFloat, a raw Go int64 or float64
// in a compiled engine, when its declaration runs before every reference
// to it (the Decl dominates them: a boxed variable whose Decl never ran
// reads as NOOB, a raw one would read as 0) and every store keeps its
// kind:
//
//   - SRSLY NUMBR and NUMBAR privates take their declared type, since
//     every store casts, except a NUMBAR counted by a loop header, which
//     stores a NUMBR;
//   - implicit loop counters the body never assigns are RepInt, unless
//     their frame has an SRS, which can name a counter inside its loop;
//   - other privates whose declaration yields a NUMBR or NUMBAR and whose
//     every R stores that same kind, never GIMMEH or IS NOW A targets,
//     are inferred by an optimistic fixpoint;
//   - an SRS target of R, GIMMEH or IS NOW A may name any private in its
//     frame, so it leaves every non-SRSLY private there boxed.
//
// Every other symbol is RepBoxed: IT, parameters, arrays and shared
// scalars. StaticKind then reports the expressions guaranteed to be a
// NUMBR or NUMBAR, counting a shared SRSLY NUMBR or NUMBAR scalar at its
// declared type.
//
// An element of a NUMBR or NUMBAR array counts at the array's element
// type when the array is TypedElems. Every element store casts, so a
// shared array always is: its heap cell keeps its declared type. A
// private array's slot holds its declared array only after its Decl has
// run, and a store to the whole array replaces the slot's value with one
// of any kind unless both are arrays (those copy the elements, or fail
// on another element type). So a private array is TypedElems when its
// Decl dominates every reference and nothing in its frame stores to the
// whole array: no R, GIMMEH or IS NOW A names it, and the frame has no
// SRS target.
//
// Three engines read these facts: the closure compiler and the Go
// emitter lower such expressions to raw int64 and float64 code, and the
// bytecode VM holds RepInt and RepFloat symbols in raw words and runs
// the operations over them as word ops.
//
// A :{var} interpolation is a read like any other: the parser gives each
// one a VarRef, and sema binds it to the symbol visible where the YARN
// appears, such as a loop's implicit counter inside the loop. A name not
// visible there binds to the finished frame's symbol, a read before the
// declaration that yields NOOB; a name the frame never declares is an
// undeclared variable. The engines read the bound reference, and the
// dominance rule above counts it.
package sema

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/token"
	"repro/internal/value"
)

// Error is a semantic error at a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList collects semantic errors.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
}

// SymKind classifies a resolved symbol.
type SymKind int

const (
	SymPrivate SymKind = iota // I HAS A: per-PE private variable
	SymShared                 // WE HAS A: symmetric shared variable (PGAS)
	SymParam                  // HOW IZ I parameter
	SymLoopVar                // implicitly declared loop counter
	SymIt                     // the implicit IT result variable
)

func (k SymKind) String() string {
	switch k {
	case SymPrivate:
		return "private"
	case SymShared:
		return "shared"
	case SymParam:
		return "param"
	case SymLoopVar:
		return "loopvar"
	case SymIt:
		return "IT"
	}
	return "?"
}

// Symbol is a resolved variable. Slot and Depth together are the lexical
// address every backend shares: LOLCODE scoping is function-flat, so two
// frame depths suffice (0 = the main program frame, 1 = a HOW IZ I frame)
// and a reference can never see a frame other than its own — which is why
// the interpreter and the VM address variables by Slot alone.
type Symbol struct {
	Name    string
	Kind    SymKind
	Decl    *ast.Decl // nil for params, loop vars and IT
	Static  bool      // ITZ SRSLY A: statically typed
	Type    value.Kind
	IsArray bool
	Sharin  bool // AN IM SHARIN IT: has an implicit lock
	Slot    int  // index into the owning frame
	Depth   int  // lexical frame depth: 0 = main, 1 = function body
	Heap    int  // symmetric heap index for shared symbols; -1 otherwise
	Lock    int  // lock index for Sharin symbols; -1 otherwise
	Rep     Rep  // how a compiled engine may hold it (see the package doc)
	// TypedElems: every element read of this NUMBR or NUMBAR array
	// yields Type (see the package doc).
	TypedElems bool
}

// Scope is a flat name table for one frame (the main program or one
// function body). LOLCODE scoping is function-flat; loop variables are the
// only block-scoped names and are handled by the resolver.
type Scope struct {
	Names map[string]*Symbol
	Order []*Symbol // slot order
	Depth int       // lexical frame depth: 0 = main, 1 = function body

	// Srs reports whether the frame's body holds an SRS, which can name
	// any of its variables at run time, and Nodes how many AST nodes the
	// body holds, by which a code generator can size its output. Both are
	// set once Check succeeds.
	Srs   bool
	Nodes int

	uses *frameUses // what the checker saw of the body, until inferReps
}

func newScope(depth int) *Scope {
	return &Scope{Names: make(map[string]*Symbol), Depth: depth, uses: &frameUses{}}
}

func (s *Scope) declare(sym *Symbol) {
	sym.Slot = len(s.Order)
	sym.Depth = s.Depth
	s.Names[sym.Name] = sym
	s.Order = append(s.Order, sym)
	s.uses.syms = append(s.uses.syms, symUse{})
}

// SrsNames is what an SRS can name where it appears: the implicit loop
// counters visible there, then the symbols of its finished frame, where
// the name of a counter whose loop has ended no longer resolves.
type SrsNames struct {
	// Counters holds the symbol each enclosing loop's implicit counter
	// name resolves to at the SRS: the counter, unless the body declared
	// that name again.
	Counters []*Symbol
	Frame    *Scope
}

// Lookup resolves a name an SRS computed at run time.
func (s *SrsNames) Lookup(name string) (*Symbol, bool) {
	for _, sym := range s.Counters {
		if sym.Name == name {
			return sym, true
		}
	}
	sym, ok := s.Frame.Names[name]
	return sym, ok
}

// FuncInfo is the analysis result for one HOW IZ I declaration.
type FuncInfo struct {
	Decl  *ast.FuncDecl
	Scope *Scope
}

// Info is the full analysis result consumed by all backends.
type Info struct {
	Prog  *ast.Program
	Main  *Scope
	Funcs map[string]*FuncInfo

	// Shared lists the symmetric symbols in declaration order: the
	// symmetric heap layout shared by every PE (paper Figure 1).
	Shared []*Symbol

	// Locks lists the Sharin symbols in declaration order; index is the
	// lock id used by the runtime.
	Locks []*Symbol
}

type checker struct {
	info *Info
	errs ErrorList

	scope       *Scope // current frame scope
	inFunc      bool
	loopDepth   int
	switchDepth int
	predicated  int  // nesting depth of TXT MAH BFF
	topLevel    bool // directly in the main body (for WE HAS A placement)

	// late holds the frame's :{var} references that named no visible
	// symbol where they appear; bindLate binds them once the frame is done.
	late []*ast.VarRef

	// counters are the implicit loop counters of the loops being checked.
	counters []*Symbol
}

// Check analyses prog and returns the binding information.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Prog:  prog,
			Main:  newScope(0),
			Funcs: make(map[string]*FuncInfo),
		},
	}

	// IT exists in every frame.
	c.scope = c.info.Main
	c.scope.declare(&Symbol{Name: "IT", Kind: SymIt, Heap: -1, Lock: -1})

	// Functions are hoisted: declare headers first so calls resolve in any
	// order.
	for _, fd := range prog.Funcs {
		if _, dup := c.info.Funcs[fd.Name]; dup {
			c.errorf(fd.Position, "function %s declared twice", fd.Name)
			continue
		}
		c.info.Funcs[fd.Name] = &FuncInfo{Decl: fd}
	}

	c.topLevel = true
	c.stmts(prog.Body)
	c.topLevel = false
	c.bindLate()

	for _, fd := range prog.Funcs {
		fi := c.info.Funcs[fd.Name]
		if fi == nil || fi.Decl != fd {
			continue // duplicate
		}
		fi.Scope = newScope(1)
		saved := c.scope
		c.scope = fi.Scope
		c.scope.declare(&Symbol{Name: "IT", Kind: SymIt, Heap: -1, Lock: -1})
		for _, pname := range fd.Params {
			if _, dup := c.scope.Names[pname]; dup {
				c.errorf(fd.Position, "function %s has duplicate parameter %s", fd.Name, pname)
				continue
			}
			c.scope.declare(&Symbol{Name: pname, Kind: SymParam, Heap: -1, Lock: -1})
		}
		c.inFunc = true
		c.stmts(fd.Body)
		c.inFunc = false
		c.bindLate()
		c.scope = saved
	}

	if len(c.errs) > 0 {
		return c.info, c.errs
	}
	c.info.inferReps()
	return c.info, nil
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// stmts checks one statement list, keeping each private it declares live
// for the rest of the list (see frameUses).
func (c *checker) stmts(ss []ast.Stmt) {
	for _, s := range ss {
		c.stmt(s)
		c.scope.uses.setLive(s, true)
	}
	for _, s := range ss {
		c.scope.uses.setLive(s, false)
	}
}

func (c *checker) stmt(s ast.Stmt) {
	c.scope.uses.nodes++
	switch n := s.(type) {
	case *ast.Decl:
		c.decl(n)

	case *ast.Assign:
		if use := c.target(n.Target); use != nil {
			use.assigns = append(use.assigns, n.Value)
		}
		c.expr(n.Value)

	case *ast.CastStmt:
		if use := c.target(n.Target); use != nil {
			use.killed = true
		}

	case *ast.Visible:
		for _, a := range n.Args {
			c.expr(a)
		}

	case *ast.Gimmeh:
		if use := c.target(n.Target); use != nil {
			use.killed = true
		}

	case *ast.ExprStmt:
		c.expr(n.X)

	case *ast.If:
		saved := c.topLevel
		c.topLevel = false
		c.stmts(n.Then)
		for _, m := range n.Mebbes {
			c.expr(m.Cond)
			c.stmts(m.Body)
		}
		c.stmts(n.Else)
		c.topLevel = saved

	case *ast.Switch:
		saved := c.topLevel
		c.topLevel = false
		c.switchDepth++
		for _, cs := range n.Cases {
			c.expr(cs.Lit)
			c.stmts(cs.Body)
		}
		c.stmts(n.Default)
		c.switchDepth--
		c.topLevel = saved

	case *ast.Loop:
		c.loop(n)

	case *ast.Gtfo:
		if c.loopDepth == 0 && c.switchDepth == 0 && !c.inFunc {
			c.errorf(n.Position, "GTFO outside of a loop, switch, or function")
		}

	case *ast.FoundYr:
		if !c.inFunc {
			c.errorf(n.Position, "FOUND YR outside of a function")
		}
		c.expr(n.X)

	case *ast.FuncDecl:
		// Hoisted by the parser at top level; nested ones are parse errors.

	case *ast.Barrier:
		// Legal anywhere, in a function too: every PE must reach it.

	case *ast.Lock:
		c.lock(n)

	case *ast.TxtStmt:
		c.expr(n.Target)
		saved := c.topLevel
		c.topLevel = false
		c.predicated++
		c.stmt(n.Stmt)
		c.predicated--
		c.topLevel = saved

	case *ast.TxtBlock:
		c.expr(n.Target)
		saved := c.topLevel
		c.topLevel = false
		c.predicated++
		c.stmts(n.Body)
		c.predicated--
		c.topLevel = saved
	}
}

func (c *checker) decl(n *ast.Decl) {
	if n.Scope == ast.ScopeWe {
		if c.inFunc {
			c.errorf(n.Position, "WE HAS A is not allowed inside a function: symmetric allocation must be collective")
		} else if !c.topLevel {
			c.errorf(n.Position, "WE HAS A must appear at the top level of the program so every PE allocates it")
		}
	}
	if prev, dup := c.scope.Names[n.Name]; dup {
		if prev.Kind != SymLoopVar {
			c.errorf(n.Position, "variable %s is already declared", n.Name)
			return
		}
	}

	sym := &Symbol{
		Name:    n.Name,
		Decl:    n,
		Static:  n.Static,
		Type:    n.Type,
		IsArray: n.IsArray,
		Sharin:  n.Sharin,
		Heap:    -1,
		Lock:    -1,
	}
	if n.Scope == ast.ScopeWe {
		sym.Kind = SymShared
		sym.Heap = len(c.info.Shared)
		c.info.Shared = append(c.info.Shared, sym)
	} else {
		sym.Kind = SymPrivate
		if n.Sharin {
			c.errorf(n.Position, "AN IM SHARIN IT requires a WE HAS A declaration")
		}
	}
	if n.Sharin && n.Scope == ast.ScopeWe {
		sym.Lock = len(c.info.Locks)
		c.info.Locks = append(c.info.Locks, sym)
	}
	c.scope.declare(sym)
	n.Sym = sym

	if n.Size != nil {
		c.expr(n.Size)
	}
	if n.Init != nil {
		c.expr(n.Init)
	}
	if n.IsArray && n.Init != nil {
		c.errorf(n.Position, "array %s cannot take an ITZ initializer", n.Name)
	}
}

func (c *checker) loop(n *ast.Loop) {
	saved := c.topLevel
	c.topLevel = false
	var implicit *Symbol
	if n.Var != "" {
		if existing, ok := c.scope.Names[n.Var]; ok {
			n.Sym = existing
		} else {
			// The paper's n-body listing uses undeclared loop counters; they
			// are implicitly declared as NUMBR 0 for the loop's duration.
			implicit = &Symbol{Name: n.Var, Kind: SymLoopVar, Type: value.Numbr, Heap: -1, Lock: -1}
			c.scope.declare(implicit)
			n.Sym = implicit
		}
	}
	if sym, _ := n.Sym.(*Symbol); sym != nil {
		c.scope.uses.ref(sym)
		c.scope.uses.syms[sym.Slot].counter = true
	}
	if implicit != nil {
		c.counters = append(c.counters, implicit)
	}
	if n.Cond != nil {
		c.expr(n.Cond)
	}
	c.loopDepth++
	c.stmts(n.Body)
	c.loopDepth--
	if implicit != nil {
		// The name stays in the frame (slots are stable) but is no longer
		// visible for resolution outside the loop, unless the body
		// declared it again: that declaration has run, and scoping is
		// function-flat.
		if c.scope.Names[n.Var] == implicit {
			delete(c.scope.Names, n.Var)
		}
		c.counters = c.counters[:len(c.counters)-1]
	}
	c.topLevel = saved
}

func (c *checker) lock(n *ast.Lock) {
	c.scope.uses.nodes++ // n.Var
	sym := c.resolve(n.Var)
	if sym == nil {
		return
	}
	if !sym.Sharin {
		c.errorf(n.Position, "%v: variable %s has no lock; declare it with AN IM SHARIN IT", n.Action, n.Var.Name)
	}
}

// target checks an assignment/GIMMEH target, and returns the use record
// of the variable it names, if it names one. An SRS target marks the
// frame: its name is computed at run time, so it may store any kind into
// any private there.
func (c *checker) target(e ast.Expr) *symUse {
	c.scope.uses.nodes++
	switch t := e.(type) {
	case *ast.VarRef:
		// Whole-array assignment is legal too (ring example).
		if sym := c.resolve(t); sym != nil {
			return &c.scope.uses.syms[sym.Slot]
		}
	case *ast.Index:
		c.index(t)
	case *ast.Srs:
		c.scope.uses.srsWrite = true
		c.srs(t)
	default:
		c.errorf(e.Pos(), "cannot assign to this expression")
	}
	return nil
}

func (c *checker) index(n *ast.Index) {
	c.scope.uses.nodes++ // n.Arr
	sym := c.resolve(n.Arr)
	if sym != nil && !sym.IsArray && sym.Kind != SymParam && sym.Kind != SymIt {
		c.errorf(n.Position, "%s is not an array; 'Z indexing needs a LOTZ A declaration", n.Arr.Name)
	}
	c.expr(n.IndexE)
}

func (c *checker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	c.scope.uses.nodes++
	switch n := e.(type) {
	case *ast.VarRef:
		c.resolve(n)
	case *ast.Index:
		c.index(n)
	case *ast.BinExpr:
		c.expr(n.X)
		c.expr(n.Y)
	case *ast.UnExpr:
		c.expr(n.X)
	case *ast.NaryExpr:
		for _, o := range n.Operands {
			c.expr(o)
		}
	case *ast.CastExpr:
		c.expr(n.X)
	case *ast.Call:
		fi, ok := c.info.Funcs[n.Name]
		if !ok {
			c.errorf(n.Position, "I IZ %s: no such function", n.Name)
		} else if len(n.Args) != len(fi.Decl.Params) {
			c.errorf(n.Position, "I IZ %s: %d arguments for %d parameters",
				n.Name, len(n.Args), len(fi.Decl.Params))
		}
		for _, a := range n.Args {
			c.expr(a)
		}
	case *ast.Srs:
		c.srs(n)
	case *ast.YarnLit:
		c.scope.uses.nodes += len(n.Refs)
		for _, r := range n.Refs {
			if sym, ok := c.scope.Names[r.Name]; ok {
				c.bind(r, sym)
			} else {
				c.late = append(c.late, r)
			}
		}
	}
}

// srs checks an SRS and attaches what its name can resolve to.
func (c *checker) srs(n *ast.Srs) {
	c.scope.uses.srs = true
	c.expr(n.X)
	c.spaceCheck(n.Position, n.Space)
	names := &SrsNames{Frame: c.scope}
	for _, k := range c.counters {
		names.Counters = append(names.Counters, c.scope.Names[k.Name])
	}
	n.Names = names
}

// bindLate binds each :{var} reference that named no visible symbol
// where it appears to the finished frame's symbol of that name: a read
// before the declaration, which yields NOOB. A name the frame never
// declares, or only as a loop counter whose loop has ended, is
// undeclared.
func (c *checker) bindLate() {
	for _, r := range c.late {
		if sym, ok := c.scope.Names[r.Name]; ok {
			c.bind(r, sym)
		} else {
			c.errorf(r.Position, "variable %s has not been declared", r.Name)
		}
	}
	c.late = nil
}

// resolve binds a VarRef to its symbol, enforcing the UR/MAH predication
// rule from Table II ("only valid within a statement that is predicated").
func (c *checker) resolve(v *ast.VarRef) *Symbol {
	c.spaceCheck(v.Position, v.Space)
	sym, ok := c.scope.Names[v.Name]
	if !ok {
		c.errorf(v.Position, "variable %s has not been declared", v.Name)
		return nil
	}
	if v.Space == ast.SpaceUr && sym.Kind != SymShared {
		c.errorf(v.Position, "UR %s: only WE HAS A symmetric variables are remotely addressable", v.Name)
	}
	c.bind(v, sym)
	return sym
}

// bind attaches sym to v and records the reference.
func (c *checker) bind(v *ast.VarRef, sym *Symbol) {
	v.Sym = sym
	c.scope.uses.ref(sym)
}

func (c *checker) spaceCheck(pos token.Pos, sp ast.Space) {
	if sp != ast.SpaceDefault && c.predicated == 0 {
		c.errorf(pos, "%v is only valid inside a TXT MAH BFF predicated statement or block", sp)
	}
}
