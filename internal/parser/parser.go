// Package parser implements a recursive-descent parser for parallel
// LOLCODE: the LOLCODE-1.2 grammar (paper Table I) plus the SPMD/PGAS
// extensions (Tables II and III).
//
// The original system used lex and yacc; this parser is hand-written in the
// usual Go style, accepts the same language, and recovers from errors at
// statement boundaries so a teaching tool can report several diagnostics in
// one run.
//
// The parser pulls tokens from the lexer one at a time, as it consumes
// them: it never looks past the current token, so no token slice is built.
// Its error list puts every lexical error first, in source order, then the
// syntax errors, capped so the list holds at most maxErrors entries unless
// the lexer alone reports more.
package parser

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/token"
	"repro/internal/value"
)

// Error is a syntax error at a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a non-empty collection of parse errors.
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

const maxErrors = 20

type parser struct {
	lx   *lexer.Lexer
	tok  token.Token // the current token
	errs ErrorList   // syntax errors; the lexer keeps its own

	inFunc bool // parsing a HOW IZ I body
}

// Parse parses a complete parallel-LOLCODE program.
func Parse(file, src string) (*ast.Program, error) {
	p := &parser{lx: lexer.New(file, src)}
	p.tok = p.lx.Next()
	prog := p.parseProgram(file)
	if len(p.errs) == 0 && len(p.lx.Errors()) == 0 {
		return prog, nil
	}
	// Lex the rest for its errors; they all come first, and leave room
	// for fewer syntax errors. The list is capped as if the parse had
	// stopped at the first syntax error past the room left, returning no
	// program.
	for p.tok.Kind != token.EOF {
		p.tok = p.lx.Next()
	}
	lexErrs := p.lx.Errors()
	if keep := max(maxErrors-len(lexErrs), 0); len(p.errs) > keep {
		p.errs, prog = p.errs[:keep], nil
	}
	errs := make(ErrorList, 0, len(lexErrs)+len(p.errs))
	for _, e := range lexErrs {
		errs = append(errs, &Error{Pos: e.Pos, Msg: e.Msg})
	}
	return prog, append(errs, p.errs...)
}

type bailout struct{}

func (p *parser) errorf(pos token.Pos, format string, args ...any) {
	if len(p.errs) >= maxErrors {
		panic(bailout{})
	}
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (p *parser) at(k token.Kind) bool { return p.tok.Kind == k }

func (p *parser) next() token.Token {
	t := p.tok
	if t.Kind != token.EOF {
		p.tok = p.lx.Next()
	}
	return t
}

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	t := p.tok
	p.errorf(t.Pos, "expected %v, found %v", k, t)
	return token.Token{Kind: k, Pos: t.Pos}
}

// sync skips tokens until the start of the next statement.
func (p *parser) sync() {
	for !p.at(token.EOF) && !p.at(token.Newline) {
		p.next()
	}
	p.skipNewlines()
}

func (p *parser) skipNewlines() {
	for p.at(token.Newline) {
		p.next()
	}
}

// endOfStmt consumes the statement terminator (newline or EOF) and reports
// stray tokens before it.
func (p *parser) endOfStmt() {
	if p.at(token.Newline) {
		p.next()
		return
	}
	if p.at(token.EOF) {
		return
	}
	t := p.tok
	p.errorf(t.Pos, "unexpected %v at end of statement", t)
	p.sync()
}

func (p *parser) parseProgram(file string) *ast.Program {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
		}
	}()

	prog := &ast.Program{File: file}
	p.skipNewlines()

	hai := p.expect(token.KwHai)
	prog.HaiPos = hai.Pos
	switch p.tok.Kind {
	case token.NumbarLit, token.NumbrLit:
		prog.Version = p.next().Text
	}
	p.endOfStmt()

	prog.Body = p.parseStmts([]token.Kind{token.KwKthxbye}, prog)

	p.expect(token.KwKthxbye)
	p.skipNewlines()
	if !p.at(token.EOF) {
		p.errorf(p.tok.Pos, "trailing input after KTHXBYE")
	}
	return prog
}

// parseStmts parses statements until a token in stop (or EOF). HOW IZ I
// declarations are hoisted into prog.Funcs when prog is non-nil (top level).
func (p *parser) parseStmts(stop []token.Kind, prog *ast.Program) []ast.Stmt {
	var out []ast.Stmt
	for {
		p.skipNewlines()
		t := p.tok
		if t.Kind == token.EOF || slices.Contains(stop, t.Kind) {
			return out
		}
		s := p.parseStmt(stop, prog)
		if s != nil {
			if fd, ok := s.(*ast.FuncDecl); ok && prog != nil {
				prog.Funcs = append(prog.Funcs, fd)
				continue
			}
			out = append(out, s)
		}
	}
}

func (p *parser) parseStmt(stop []token.Kind, prog *ast.Program) ast.Stmt {
	t := p.tok
	switch t.Kind {
	case token.KwCanHas:
		return p.parseCanHas(prog)
	case token.KwVisible, token.KwInvisibl:
		return p.parseVisible()
	case token.KwGimmeh:
		return p.parseGimmeh()
	case token.KwIHasA, token.KwWeHasA:
		return p.parseDecl()
	case token.KwORly:
		return p.parseIf()
	case token.KwWtf:
		return p.parseSwitch()
	case token.KwImInYr:
		return p.parseLoop()
	case token.KwGtfo:
		p.next()
		p.endOfStmt()
		return &ast.Gtfo{Position: t.Pos}
	case token.KwFoundYr:
		p.next()
		x := p.parseExpr()
		p.endOfStmt()
		return &ast.FoundYr{Position: t.Pos, X: x}
	case token.KwHowIzI:
		return p.parseFuncDecl()
	case token.KwHugz:
		p.next()
		p.endOfStmt()
		return &ast.Barrier{Position: t.Pos}
	case token.KwImSrslyMesinWif:
		return p.parseLock(ast.LockAcquire)
	case token.KwImMesinWif:
		return p.parseLock(ast.LockTry)
	case token.KwDunMesinWif:
		return p.parseLock(ast.LockRelease)
	case token.KwTxtMahBff:
		return p.parseTxt(stop, prog)
	case token.Ident, token.KwUr, token.KwMah, token.KwSrs, token.KwIt:
		return p.parseRefStmt()
	default:
		// Anything else must begin an expression statement (sets IT).
		x := p.parseExpr()
		p.endOfStmt()
		return &ast.ExprStmt{Position: t.Pos, X: x}
	}
}

func (p *parser) parseCanHas(prog *ast.Program) ast.Stmt {
	t := p.expect(token.KwCanHas)
	var lib string
	switch p.tok.Kind {
	case token.Ident:
		lib = p.next().Text
	default:
		// Library names may collide with keywords; take the raw phrase.
		lib = p.next().Kind.String()
	}
	p.expect(token.Question)
	p.endOfStmt()
	ch := &ast.CanHas{Position: t.Pos, Lib: lib}
	if prog != nil {
		prog.Uses = append(prog.Uses, ch)
		return nil
	}
	return &ast.ExprStmt{Position: t.Pos, X: &ast.NoobLit{Position: t.Pos}}
}

func (p *parser) parseVisible() ast.Stmt {
	t := p.next() // VISIBLE or INVISIBLE
	v := &ast.Visible{Position: t.Pos, Invisible: t.Kind == token.KwInvisibl}
	for !p.at(token.Newline) && !p.at(token.EOF) && !p.at(token.Bang) {
		v.Args = append(v.Args, p.parseExpr())
	}
	if p.accept(token.Bang) {
		v.NoNewline = true
	}
	p.endOfStmt()
	if len(v.Args) == 0 {
		p.errorf(t.Pos, "VISIBLE needs at least one expression")
	}
	return v
}

func (p *parser) parseGimmeh() ast.Stmt {
	t := p.expect(token.KwGimmeh)
	ref := p.parseRef()
	p.endOfStmt()
	return &ast.Gimmeh{Position: t.Pos, Target: ref}
}

// parseElemType parses a scalar type name in array-declaration position,
// where the paper pluralizes it ("LOTZ A NUMBRS").
func (p *parser) parseElemType() value.Kind {
	t := p.tok
	switch t.Kind {
	case token.KwNumbr:
		p.next()
		return value.Numbr
	case token.KwNumbar:
		p.next()
		return value.Numbar
	case token.KwYarn:
		p.next()
		return value.Yarn
	case token.KwTroof:
		p.next()
		return value.Troof
	case token.Ident:
		switch strings.ToUpper(t.Text) {
		case "NUMBRS", "NUMBRZ":
			p.next()
			return value.Numbr
		case "NUMBARS", "NUMBARZ":
			p.next()
			return value.Numbar
		case "YARNS", "YARNZ":
			p.next()
			return value.Yarn
		case "TROOFS", "TROOFZ":
			p.next()
			return value.Troof
		}
	}
	p.errorf(t.Pos, "expected a type name, found %v", t)
	p.next()
	return value.Noob
}

func (p *parser) parseScalarType() value.Kind {
	t := p.tok
	switch t.Kind {
	case token.KwNumbr:
		p.next()
		return value.Numbr
	case token.KwNumbar:
		p.next()
		return value.Numbar
	case token.KwYarn:
		p.next()
		return value.Yarn
	case token.KwTroof:
		p.next()
		return value.Troof
	case token.KwNoob:
		p.next()
		return value.Noob
	}
	p.errorf(t.Pos, "expected a type name, found %v", t)
	p.next()
	return value.Noob
}

func (p *parser) parseDecl() ast.Stmt {
	t := p.next() // I HAS A / WE HAS A
	d := &ast.Decl{Position: t.Pos}
	if t.Kind == token.KwWeHasA {
		d.Scope = ast.ScopeWe
	}
	name := p.expect(token.Ident)
	d.Name = name.Text

	switch p.tok.Kind {
	case token.KwItz:
		p.next()
		d.Init = p.parseExpr()
	case token.KwItzA:
		p.next()
		d.Typed = true
		d.Type = p.parseScalarType()
	case token.KwItzSrslyA:
		p.next()
		d.Typed = true
		d.Static = true
		d.Type = p.parseScalarType()
	case token.KwItzLotzA:
		p.next()
		d.Typed = true
		d.IsArray = true
		d.Type = p.parseElemType()
	case token.KwItzSrslyLotzA:
		p.next()
		d.Typed = true
		d.Static = true
		d.IsArray = true
		d.Type = p.parseElemType()
	}

	// Multi-clause extensions: AN THAR IZ size, AN ITZ init, AN IM SHARIN IT.
clauses:
	for {
		switch p.tok.Kind {
		case token.KwAnTharIz:
			pos := p.next().Pos
			if !d.IsArray {
				p.errorf(pos, "AN THAR IZ is only valid for LOTZ A declarations")
			}
			d.Size = p.parseExpr()
		case token.KwAnItz:
			p.next()
			if d.Init != nil {
				p.errorf(p.tok.Pos, "duplicate initializer clause")
			}
			d.Init = p.parseExpr()
		case token.KwAnImSharinIt:
			p.next()
			d.Sharin = true
		default:
			break clauses
		}
	}
	if d.IsArray && d.Size == nil {
		p.errorf(t.Pos, "array declaration of %s needs AN THAR IZ <size>", d.Name)
	}
	p.endOfStmt()
	return d
}

// parseRefStmt handles statements that begin with a variable reference:
// assignment, IS NOW A, or a bare expression statement.
func (p *parser) parseRefStmt() ast.Stmt {
	t := p.tok
	ref := p.parseRef()
	switch p.tok.Kind {
	case token.KwR:
		p.next()
		val := p.parseExpr()
		p.endOfStmt()
		return &ast.Assign{Position: t.Pos, Target: ref, Value: val}
	case token.KwIsNowA:
		p.next()
		typ := p.parseScalarType()
		p.endOfStmt()
		return &ast.CastStmt{Position: t.Pos, Target: ref, Type: typ}
	default:
		p.endOfStmt()
		return &ast.ExprStmt{Position: t.Pos, X: ref}
	}
}

// parseRef parses `[UR|MAH] name ['Z index]` or `SRS expr`.
func (p *parser) parseRef() ast.Expr {
	t := p.tok
	space := ast.SpaceDefault
	switch t.Kind {
	case token.KwUr:
		p.next()
		space = ast.SpaceUr
	case token.KwMah:
		p.next()
		space = ast.SpaceMah
	}

	if p.at(token.KwSrs) {
		pos := p.next().Pos
		x := p.parseExpr()
		return &ast.Srs{Position: pos, X: x, Space: space}
	}

	var v *ast.VarRef
	switch p.tok.Kind {
	case token.Ident:
		id := p.next()
		v = &ast.VarRef{Position: id.Pos, Name: id.Text, Space: space}
	case token.KwIt:
		pos := p.next().Pos
		v = &ast.VarRef{Position: pos, Name: "IT", Space: space}
	default:
		p.errorf(p.tok.Pos, "expected a variable name, found %v", p.tok)
		return &ast.NoobLit{Position: p.tok.Pos}
	}

	if p.at(token.IndexZ) {
		pos := p.next().Pos
		idx := p.parseExpr()
		return &ast.Index{Position: pos, Arr: v, IndexE: idx}
	}
	return v
}

func (p *parser) parseIf() ast.Stmt {
	t := p.expect(token.KwORly)
	p.expect(token.Question)
	p.skipNewlines()

	n := &ast.If{Position: t.Pos}
	stop := []token.Kind{token.KwMebbe, token.KwNoWai, token.KwOic, token.KwKthxbye}
	// YA RLY is optional: the paper's §V lock fragment writes
	// `O RLY? NO WAI, … OIC` with no YA RLY arm.
	if p.accept(token.KwYaRly) {
		p.skipNewlines()
		n.Then = p.parseStmts(stop, nil)
	}

	for p.at(token.KwMebbe) {
		mp := p.next().Pos
		cond := p.parseExpr()
		p.skipNewlines()
		body := p.parseStmts(stop, nil)
		n.Mebbes = append(n.Mebbes, ast.MebbeClause{Position: mp, Cond: cond, Body: body})
	}
	if p.accept(token.KwNoWai) {
		p.skipNewlines()
		n.Else = p.parseStmts(stop, nil)
	}
	p.expect(token.KwOic)
	p.endOfStmt()
	return n
}

func (p *parser) parseSwitch() ast.Stmt {
	t := p.expect(token.KwWtf)
	p.expect(token.Question)
	p.skipNewlines()

	n := &ast.Switch{Position: t.Pos}
	stop := []token.Kind{token.KwOmg, token.KwOmgwtf, token.KwOic, token.KwKthxbye}
	for p.at(token.KwOmg) {
		cp := p.next().Pos
		lit := p.parseLiteral()
		p.skipNewlines()
		body := p.parseStmts(stop, nil)
		n.Cases = append(n.Cases, ast.OmgClause{Position: cp, Lit: lit, Body: body})
	}
	if p.accept(token.KwOmgwtf) {
		p.skipNewlines()
		n.Default = p.parseStmts(stop, nil)
	}
	if len(n.Cases) == 0 && n.Default == nil {
		p.errorf(t.Pos, "WTF? needs at least one OMG case")
	}
	p.expect(token.KwOic)
	p.endOfStmt()
	return n
}

// parseLiteral parses the literal after OMG.
func (p *parser) parseLiteral() ast.Expr {
	t := p.tok
	switch t.Kind {
	case token.NumbrLit, token.NumbarLit, token.YarnLit, token.KwWin, token.KwFail, token.KwNoob:
		return p.parseExpr()
	}
	p.errorf(t.Pos, "OMG needs a literal value, found %v", t)
	p.next()
	return &ast.NoobLit{Position: t.Pos}
}

func (p *parser) parseLoop() ast.Stmt {
	t := p.expect(token.KwImInYr)
	label := p.expect(token.Ident)
	n := &ast.Loop{Position: t.Pos, Label: label.Text}

	switch p.tok.Kind {
	case token.KwUppin:
		p.next()
		n.Op = ast.LoopUppin
		p.expect(token.KwYr)
		n.Var = p.expect(token.Ident).Text
	case token.KwNerfin:
		p.next()
		n.Op = ast.LoopNerfin
		p.expect(token.KwYr)
		n.Var = p.expect(token.Ident).Text
	}
	switch p.tok.Kind {
	case token.KwTil:
		p.next()
		n.CondKind = ast.CondTil
		n.Cond = p.parseExpr()
	case token.KwWile:
		p.next()
		n.CondKind = ast.CondWile
		n.Cond = p.parseExpr()
	}
	p.endOfStmt()

	n.Body = p.parseStmts([]token.Kind{token.KwImOuttaYr, token.KwKthxbye}, nil)

	p.expect(token.KwImOuttaYr)
	end := p.expect(token.Ident)
	n.EndLabel = end.Text
	if n.EndLabel != n.Label {
		// The paper's own listing closes nested loops that all share the
		// label "loop", so mismatches are tolerated; truly different names
		// are still worth a diagnostic.
		p.errorf(end.Pos, "loop label mismatch: IM IN YR %s closed by IM OUTTA YR %s", n.Label, n.EndLabel)
	}
	p.endOfStmt()
	return n
}

func (p *parser) parseFuncDecl() ast.Stmt {
	t := p.expect(token.KwHowIzI)
	if p.inFunc {
		p.errorf(t.Pos, "HOW IZ I cannot nest inside another function")
	}
	name := p.expect(token.Ident)
	fd := &ast.FuncDecl{Position: t.Pos, Name: name.Text}

	if p.accept(token.KwYr) {
		fd.Params = append(fd.Params, p.expect(token.Ident).Text)
		for p.at(token.KwAn) {
			p.next()
			p.expect(token.KwYr)
			fd.Params = append(fd.Params, p.expect(token.Ident).Text)
		}
	}
	p.endOfStmt()

	p.inFunc = true
	fd.Body = p.parseStmts([]token.Kind{token.KwIfUSaySo, token.KwKthxbye}, nil)
	p.inFunc = false

	p.expect(token.KwIfUSaySo)
	p.endOfStmt()
	return fd
}

func (p *parser) parseLock(action ast.LockAction) ast.Stmt {
	t := p.next()
	// Optional UR/MAH qualifier: the lock object is global per symbol, so
	// the qualifier is accepted and recorded but does not change semantics.
	space := ast.SpaceDefault
	switch p.tok.Kind {
	case token.KwUr:
		p.next()
		space = ast.SpaceUr
	case token.KwMah:
		p.next()
		space = ast.SpaceMah
	}
	name := p.expect(token.Ident)
	v := &ast.VarRef{Position: name.Pos, Name: name.Text, Space: space}
	p.endOfStmt()
	return &ast.Lock{Position: t.Pos, Action: action, Var: v}
}

func (p *parser) parseTxt(stop []token.Kind, prog *ast.Program) ast.Stmt {
	t := p.expect(token.KwTxtMahBff)
	target := p.parseExpr()

	if p.accept(token.KwAnStuff) {
		p.endOfStmt()
		body := p.parseStmts([]token.Kind{token.KwTtyl, token.KwKthxbye}, nil)
		p.expect(token.KwTtyl)
		p.endOfStmt()
		return &ast.TxtBlock{Position: t.Pos, Target: target, Body: body}
	}

	// Single-statement predication: `TXT MAH BFF k, <stmt>`. The comma is a
	// statement separator, so the predicated statement follows a Newline.
	if p.at(token.Newline) {
		p.next()
	}
	p.skipNewlines()
	if p.at(token.EOF) || slices.Contains(stop, p.tok.Kind) {
		p.errorf(t.Pos, "TXT MAH BFF needs a statement to predicate")
		return &ast.TxtStmt{Position: t.Pos, Target: target,
			Stmt: &ast.ExprStmt{Position: t.Pos, X: &ast.NoobLit{Position: t.Pos}}}
	}
	inner := p.parseStmt(stop, nil)
	if inner == nil {
		inner = &ast.ExprStmt{Position: t.Pos, X: &ast.NoobLit{Position: t.Pos}}
	}
	return &ast.TxtStmt{Position: t.Pos, Target: target, Stmt: inner}
}

// parseNumbr converts integer literal text.
func parseNumbr(t token.Token) int64 {
	n, _ := strconv.ParseInt(t.Text, 10, 64)
	return n
}

func parseNumbar(t token.Token) float64 {
	f, _ := strconv.ParseFloat(t.Text, 64)
	return f
}
