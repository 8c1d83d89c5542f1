// Package ast declares the abstract syntax tree for parallel LOLCODE:
// LOLCODE-1.2 plus the SPMD/PGAS extensions of Richie & Ross (2017).
package ast

import (
	"repro/internal/lexer"
	"repro/internal/token"
	"repro/internal/value"
)

// Node is the interface implemented by all AST nodes.
type Node interface {
	Pos() token.Pos
}

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Space identifies which PE address space a variable reference targets
// (paper Table II: UR = remote, MAH = local). Unqualified references are
// local; UR/MAH are only legal under TXT MAH BFF predication.
type Space int

const (
	SpaceDefault Space = iota // unqualified: the local PE
	SpaceMah                  // MAH var: explicitly local
	SpaceUr                   // UR var: the predicated remote PE
)

func (s Space) String() string {
	switch s {
	case SpaceMah:
		return "MAH"
	case SpaceUr:
		return "UR"
	}
	return ""
}

// Program is a whole parsed source file: HAI … KTHXBYE.
type Program struct {
	HaiPos  token.Pos
	Version string // text after HAI ("1.2"); may be empty
	Uses    []*CanHas
	Body    []Stmt
	Funcs   []*FuncDecl // HOW IZ I declarations, in source order
	File    string
}

func (p *Program) Pos() token.Pos { return p.HaiPos }

// CanHas is a `CAN HAS <lib>?` library inclusion. The standard libraries
// (STDIO, STRING, SOCKS, STDLIB) are built in; the node is retained for
// formatting and diagnostics.
type CanHas struct {
	Position token.Pos
	Lib      string
}

func (n *CanHas) Pos() token.Pos { return n.Position }

// ---------------------------------------------------------------- statements

// DeclScope distinguishes `I HAS A` (private) from `WE HAS A` (symmetric).
type DeclScope int

const (
	ScopeI  DeclScope = iota // I HAS A: private per-PE variable
	ScopeWe                  // WE HAS A: symmetric shared variable (PGAS)
)

func (s DeclScope) String() string {
	if s == ScopeWe {
		return "WE HAS A"
	}
	return "I HAS A"
}

// Decl is a variable or array declaration with the paper's multi-clause
// extensions:
//
//	I HAS A x
//	I HAS A x ITZ <expr>
//	I HAS A x ITZ A NUMBR [AN ITZ <expr>]
//	I HAS A x ITZ SRSLY A NUMBAR [AN ITZ <expr>]
//	I HAS A x ITZ [SRSLY] LOTZ A NUMBRS AN THAR IZ <size>
//	WE HAS A x ITZ SRSLY A NUMBR [AN IM SHARIN IT]
//	WE HAS A x ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 32 [AN IM SHARIN IT]
type Decl struct {
	Position token.Pos
	Scope    DeclScope
	Name     string
	Typed    bool       // a type clause was present
	Static   bool       // SRSLY: statically typed
	Type     value.Kind // element/scalar type when Typed
	IsArray  bool       // LOTZ A <type>S
	Size     Expr       // AN THAR IZ <size>, for arrays
	Init     Expr       // ITZ <expr> or AN ITZ <expr>; nil if none
	Sharin   bool       // AN IM SHARIN IT: attach an implicit lock

	// Sym is the declared *sema.Symbol, attached by sema.Check (see
	// VarRef.Sym).
	Sym any
}

func (n *Decl) Pos() token.Pos { return n.Position }
func (*Decl) stmtNode()        {}

// Assign is `<target> R <expr>`.
type Assign struct {
	Position token.Pos
	Target   Expr // *VarRef or *Index
	Value    Expr
}

func (n *Assign) Pos() token.Pos { return n.Position }
func (*Assign) stmtNode()        {}

// CastStmt is `<var> IS NOW A <type>`, an in-place cast.
type CastStmt struct {
	Position token.Pos
	Target   Expr // *VarRef or *Index
	Type     value.Kind
}

func (n *CastStmt) Pos() token.Pos { return n.Position }
func (*CastStmt) stmtNode()        {}

// Visible is `VISIBLE <expr>… [!]`, printing to standard output. Invisible
// selects standard error (a common interpreter extension kept for
// diagnostics in teaching settings).
type Visible struct {
	Position  token.Pos
	Args      []Expr
	NoNewline bool // trailing !
	Invisible bool // INVISIBLE: write to stderr
}

func (n *Visible) Pos() token.Pos { return n.Position }
func (*Visible) stmtNode()        {}

// Gimmeh is `GIMMEH <var>`: read one line into the variable as a YARN.
type Gimmeh struct {
	Position token.Pos
	Target   Expr // *VarRef or *Index
}

func (n *Gimmeh) Pos() token.Pos { return n.Position }
func (*Gimmeh) stmtNode()        {}

// ExprStmt is a bare expression; its value is assigned to IT.
type ExprStmt struct {
	Position token.Pos
	X        Expr
}

func (n *ExprStmt) Pos() token.Pos { return n.Position }
func (*ExprStmt) stmtNode()        {}

// If is the `O RLY?` conditional. The condition is the implicit IT set by
// the immediately preceding expression statement.
type If struct {
	Position token.Pos
	Then     []Stmt
	Mebbes   []MebbeClause
	Else     []Stmt // NO WAI; nil when absent
}

// MebbeClause is a `MEBBE <expr>` alternative arm.
type MebbeClause struct {
	Position token.Pos
	Cond     Expr
	Body     []Stmt
}

func (n *If) Pos() token.Pos { return n.Position }
func (*If) stmtNode()        {}

// Switch is `WTF?` … `OIC` with OMG literal cases and OMGWTF default.
// LOLCODE cases fall through unless terminated by GTFO.
type Switch struct {
	Position token.Pos
	Cases    []OmgClause
	Default  []Stmt // OMGWTF; nil when absent
}

// OmgClause is one `OMG <literal>` case arm.
type OmgClause struct {
	Position token.Pos
	Lit      Expr // literal expression (NUMBR/NUMBAR/YARN/TROOF)
	Body     []Stmt
}

func (n *Switch) Pos() token.Pos { return n.Position }
func (*Switch) stmtNode()        {}

// LoopOp is the loop-variable update operation.
type LoopOp int

const (
	LoopNone   LoopOp = iota // no update clause: infinite until GTFO
	LoopUppin                // UPPIN YR var: increment
	LoopNerfin               // NERFIN YR var: decrement
)

// LoopCond distinguishes TIL (run until expr is WIN) from WILE (run while
// expr is WIN).
type LoopCond int

const (
	CondNone LoopCond = iota
	CondTil
	CondWile
)

// Loop is `IM IN YR <label> [UPPIN|NERFIN YR <var> [TIL|WILE <expr>]] …
// IM OUTTA YR <label>`.
type Loop struct {
	Position token.Pos
	Label    string
	Op       LoopOp
	Var      string // loop variable; empty when Op == LoopNone
	CondKind LoopCond
	Cond     Expr
	Body     []Stmt
	EndLabel string // label after IM OUTTA YR (checked against Label)

	// Sym is the loop counter's *sema.Symbol (existing variable or the
	// implicitly declared counter), attached by sema.Check; nil when the
	// loop has no update clause (see VarRef.Sym).
	Sym any
}

func (n *Loop) Pos() token.Pos { return n.Position }
func (*Loop) stmtNode()        {}

// Gtfo breaks the innermost loop or switch, or returns NOOB from a function.
type Gtfo struct {
	Position token.Pos
}

func (n *Gtfo) Pos() token.Pos { return n.Position }
func (*Gtfo) stmtNode()        {}

// FoundYr is `FOUND YR <expr>`: return a value from a HOW IZ I function.
type FoundYr struct {
	Position token.Pos
	X        Expr
}

func (n *FoundYr) Pos() token.Pos { return n.Position }
func (*FoundYr) stmtNode()        {}

// FuncDecl is `HOW IZ I <name> [YR p1 [AN YR p2]…] … IF U SAY SO`.
type FuncDecl struct {
	Position token.Pos
	Name     string
	Params   []string
	Body     []Stmt
}

func (n *FuncDecl) Pos() token.Pos { return n.Position }
func (*FuncDecl) stmtNode()        {}

// ---------------------------------------------- parallel extension statements

// Barrier is `HUGZ`, the collective barrier (paper Table II).
type Barrier struct {
	Position token.Pos
}

func (n *Barrier) Pos() token.Pos { return n.Position }
func (*Barrier) stmtNode()        {}

// LockAction distinguishes the three lock statements.
type LockAction int

const (
	LockAcquire LockAction = iota // IM SRSLY MESIN WIF x: blocking acquire
	LockTry                       // IM MESIN WIF x: trylock; sets IT
	LockRelease                   // DUN MESIN WIF x: release
)

func (a LockAction) String() string {
	switch a {
	case LockAcquire:
		return "IM SRSLY MESIN WIF"
	case LockTry:
		return "IM MESIN WIF"
	case LockRelease:
		return "DUN MESIN WIF"
	}
	return "LOCK?"
}

// Lock operates on the implicit lock attached to a shared variable by
// `AN IM SHARIN IT`. The optional UR/MAH qualifier is accepted (the lock is
// a single global object per symbol, as in OpenSHMEM, so the qualifier does
// not change behaviour).
type Lock struct {
	Position token.Pos
	Action   LockAction
	Var      *VarRef
}

func (n *Lock) Pos() token.Pos { return n.Position }
func (*Lock) stmtNode()        {}

// TxtStmt is single-statement predication:
// `TXT MAH BFF <expr>, <statement>`. UR references inside Stmt resolve to
// the address space of PE Target.
type TxtStmt struct {
	Position token.Pos
	Target   Expr
	Stmt     Stmt
}

func (n *TxtStmt) Pos() token.Pos { return n.Position }
func (*TxtStmt) stmtNode()        {}

// TxtBlock is block predication:
// `TXT MAH BFF <expr> AN STUFF … TTYL`.
type TxtBlock struct {
	Position token.Pos
	Target   Expr
	Body     []Stmt
}

func (n *TxtBlock) Pos() token.Pos { return n.Position }
func (*TxtBlock) stmtNode()        {}

// ---------------------------------------------------------------- expressions

// NumbrLit is an integer literal.
type NumbrLit struct {
	Position token.Pos
	Value    int64
}

func (n *NumbrLit) Pos() token.Pos { return n.Position }
func (*NumbrLit) exprNode()        {}

// NumbarLit is a float literal.
type NumbarLit struct {
	Position token.Pos
	Value    float64
	Text     string // original spelling, for exact formatting
}

func (n *NumbarLit) Pos() token.Pos { return n.Position }
func (*NumbarLit) exprNode()        {}

// YarnLit is a string literal. Raw is the undecoded interior; Segs is the
// decoded segment list including :{var} interpolations. Refs holds one
// reference per :{var} segment, in segment order, which sema binds like
// any other read.
type YarnLit struct {
	Position token.Pos
	Raw      string
	Segs     []lexer.YarnSegment
	Refs     []*VarRef
}

func (n *YarnLit) Pos() token.Pos { return n.Position }
func (*YarnLit) exprNode()        {}

// TroofLit is WIN or FAIL.
type TroofLit struct {
	Position token.Pos
	Value    bool
}

func (n *TroofLit) Pos() token.Pos { return n.Position }
func (*TroofLit) exprNode()        {}

// NoobLit is the NOOB literal.
type NoobLit struct {
	Position token.Pos
}

func (n *NoobLit) Pos() token.Pos { return n.Position }
func (*NoobLit) exprNode()        {}

// VarRef is a variable reference, optionally qualified with UR or MAH.
// The special name "IT" refers to the implicit result variable.
type VarRef struct {
	Position token.Pos
	Name     string
	Space    Space

	// Sym is the resolved *sema.Symbol, attached by sema.Check's slot
	// resolution pass (typed any to avoid an import cycle, in the style of
	// go/ast's Ident.Obj). It is the only record of the binding: every
	// backend reads it for direct frame-slot access instead of
	// re-resolving the name. An SRS names its variable at run time, so
	// it has no VarRef and resolves through its SrsNames.
	Sym any
}

func (n *VarRef) Pos() token.Pos { return n.Position }
func (*VarRef) exprNode()        {}

// Index is the paper's clean array indexing: `arr'Z i` (optionally
// space-qualified through the underlying VarRef: `UR pos_x'Z j`).
type Index struct {
	Position token.Pos
	Arr      *VarRef
	IndexE   Expr
}

func (n *Index) Pos() token.Pos { return n.Position }
func (*Index) exprNode()        {}

// BinExpr is a fixed-arity-two operator: `SUM OF x AN y`.
type BinExpr struct {
	Position token.Pos
	Op       value.BinOp
	X, Y     Expr
}

func (n *BinExpr) Pos() token.Pos { return n.Position }
func (*BinExpr) exprNode()        {}

// UnExpr is a unary operator: NOT, SQUAR OF, UNSQUAR OF, FLIP OF.
type UnExpr struct {
	Position token.Pos
	Op       value.UnOp
	X        Expr
}

func (n *UnExpr) Pos() token.Pos { return n.Position }
func (*UnExpr) exprNode()        {}

// NaryExpr is a variadic operator closed by MKAY: ALL OF, ANY OF, SMOOSH.
type NaryExpr struct {
	Position token.Pos
	Op       value.NaryOp
	Operands []Expr
	HasMkay  bool // explicit MKAY was present (round-trip formatting)
}

func (n *NaryExpr) Pos() token.Pos { return n.Position }
func (*NaryExpr) exprNode()        {}

// CastExpr is `MAEK <expr> A <type>`.
type CastExpr struct {
	Position token.Pos
	X        Expr
	Type     value.Kind
}

func (n *CastExpr) Pos() token.Pos { return n.Position }
func (*CastExpr) exprNode()        {}

// Call is a function invocation: `I IZ <name> [YR a1 [AN YR a2]…] MKAY`.
type Call struct {
	Position token.Pos
	Name     string
	Args     []Expr
}

func (n *Call) Pos() token.Pos { return n.Position }
func (*Call) exprNode()        {}

// Srs is `SRS <expr>`: interpret a YARN value as a variable name.
type Srs struct {
	Position token.Pos
	X        Expr
	Space    Space
	// Names is the *sema.SrsNames the name resolves in, attached by
	// sema.Check: the implicit loop counters visible here, then the
	// frame's symbols.
	Names any
}

func (n *Srs) Pos() token.Pos { return n.Position }
func (*Srs) exprNode()        {}

// Me is `ME`: the executing PE's id (paper Table II).
type Me struct {
	Position token.Pos
}

func (n *Me) Pos() token.Pos { return n.Position }
func (*Me) exprNode()        {}

// MahFrenz is `MAH FRENZ`: the total number of PEs (paper Table II).
type MahFrenz struct {
	Position token.Pos
}

func (n *MahFrenz) Pos() token.Pos { return n.Position }
func (*MahFrenz) exprNode()        {}

// Whatevr is `WHATEVR`: a random NUMBR (paper Table III).
type Whatevr struct {
	Position token.Pos
}

func (n *Whatevr) Pos() token.Pos { return n.Position }
func (*Whatevr) exprNode()        {}

// Whatevar is `WHATEVAR`: a random NUMBAR in [0,1) (paper Table III).
type Whatevar struct {
	Position token.Pos
}

func (n *Whatevar) Pos() token.Pos { return n.Position }
func (*Whatevar) exprNode()        {}
