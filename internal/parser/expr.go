package parser

import (
	"repro/internal/ast"
	"repro/internal/lexer"
	"repro/internal/token"
	"repro/internal/value"
)

// binOp maps a binary-operator keyword to its semantic operator. The
// keywords SUM OF … WON OF are declared in value.BinOp's order.
func binOp(k token.Kind) (value.BinOp, bool) {
	return value.BinOp(k - token.KwSumOf), k >= token.KwSumOf && k <= token.KwWonOf
}

// parseExpr parses one expression. LOLCODE expressions are prefix-form, so
// no precedence climbing is needed; operators consume a fixed (or
// MKAY-terminated) number of operands.
func (p *parser) parseExpr() ast.Expr {
	t := p.tok

	if op, ok := binOp(t.Kind); ok {
		p.next()
		x := p.parseExpr()
		// The AN separator is conventional but optional in LOLCODE-1.2.
		p.accept(token.KwAn)
		y := p.parseExpr()
		return &ast.BinExpr{Position: t.Pos, Op: op, X: x, Y: y}
	}

	switch t.Kind {
	case token.NumbrLit:
		p.next()
		return &ast.NumbrLit{Position: t.Pos, Value: parseNumbr(t)}

	case token.NumbarLit:
		p.next()
		return &ast.NumbarLit{Position: t.Pos, Value: parseNumbar(t), Text: t.Text}

	case token.YarnLit:
		p.next()
		segs, err := lexer.DecodeYarn(t.Text)
		if err != nil {
			p.errorf(t.Pos, "bad YARN literal: %v", err)
		}
		var refs []*ast.VarRef
		for _, seg := range segs {
			if seg.Var != "" {
				refs = append(refs, &ast.VarRef{Position: t.Pos, Name: seg.Var})
			}
		}
		return &ast.YarnLit{Position: t.Pos, Raw: t.Text, Segs: segs, Refs: refs}

	case token.KwWin:
		p.next()
		return &ast.TroofLit{Position: t.Pos, Value: true}

	case token.KwFail:
		p.next()
		return &ast.TroofLit{Position: t.Pos, Value: false}

	case token.KwNoob:
		p.next()
		return &ast.NoobLit{Position: t.Pos}

	case token.KwNot:
		p.next()
		return &ast.UnExpr{Position: t.Pos, Op: value.OpNot, X: p.parseExpr()}

	case token.KwSquarOf:
		p.next()
		return &ast.UnExpr{Position: t.Pos, Op: value.OpSquar, X: p.parseExpr()}

	case token.KwUnsquarOf:
		p.next()
		return &ast.UnExpr{Position: t.Pos, Op: value.OpUnsquar, X: p.parseExpr()}

	case token.KwFlipOf:
		p.next()
		return &ast.UnExpr{Position: t.Pos, Op: value.OpFlip, X: p.parseExpr()}

	case token.KwAllOf:
		p.next()
		return p.parseNary(t.Pos, value.OpAllOf)

	case token.KwAnyOf:
		p.next()
		return p.parseNary(t.Pos, value.OpAnyOf)

	case token.KwSmoosh:
		p.next()
		return p.parseNary(t.Pos, value.OpSmoosh)

	case token.KwMaek:
		p.next()
		x := p.parseExpr()
		// `MAEK expr A type`; the A is conventional but optional.
		p.accept(token.KwA)
		typ := p.parseScalarType()
		return &ast.CastExpr{Position: t.Pos, X: x, Type: typ}

	case token.KwIIz:
		p.next()
		return p.parseCall(t.Pos)

	case token.KwMe:
		p.next()
		return &ast.Me{Position: t.Pos}

	case token.KwMahFrenz:
		p.next()
		return &ast.MahFrenz{Position: t.Pos}

	case token.KwWhatevr:
		p.next()
		return &ast.Whatevr{Position: t.Pos}

	case token.KwWhatevar:
		p.next()
		return &ast.Whatevar{Position: t.Pos}

	case token.KwIt, token.Ident, token.KwUr, token.KwMah, token.KwSrs:
		return p.parseRef()

	default:
		p.errorf(t.Pos, "expected an expression, found %v", t)
		p.next()
		return &ast.NoobLit{Position: t.Pos}
	}
}

// parseNary parses the operand list of ALL OF / ANY OF / SMOOSH. The list
// ends at MKAY or at the end of the statement (MKAY is optional at
// line end per the specification).
func (p *parser) parseNary(pos token.Pos, op value.NaryOp) ast.Expr {
	n := &ast.NaryExpr{Position: pos, Op: op}
	for {
		n.Operands = append(n.Operands, p.parseExpr())
		if p.accept(token.KwMkay) {
			n.HasMkay = true
			break
		}
		if p.at(token.Newline) || p.at(token.EOF) || p.at(token.Bang) || p.at(token.Question) {
			break
		}
		if !p.accept(token.KwAn) {
			// Operands may be juxtaposed without AN; continue unless the
			// next token cannot start an expression.
			if !p.startsExpr() {
				break
			}
		}
	}
	if len(n.Operands) == 0 {
		p.errorf(pos, "%v needs at least one operand", op)
	}
	return n
}

// parseCall parses `I IZ name [YR a (AN YR a)*] MKAY`.
func (p *parser) parseCall(pos token.Pos) ast.Expr {
	name := p.expect(token.Ident)
	c := &ast.Call{Position: pos, Name: name.Text}
	if p.accept(token.KwYr) {
		c.Args = append(c.Args, p.parseExpr())
		for p.at(token.KwAn) {
			p.next()
			p.expect(token.KwYr)
			c.Args = append(c.Args, p.parseExpr())
		}
	}
	// MKAY is optional at end of statement.
	p.accept(token.KwMkay)
	return c
}

// startsExpr reports whether the next token can begin an expression.
func (p *parser) startsExpr() bool {
	t := p.tok
	if _, ok := binOp(t.Kind); ok {
		return true
	}
	switch t.Kind {
	case token.NumbrLit, token.NumbarLit, token.YarnLit,
		token.KwWin, token.KwFail, token.KwNoob,
		token.KwNot, token.KwSquarOf, token.KwUnsquarOf, token.KwFlipOf,
		token.KwAllOf, token.KwAnyOf, token.KwSmoosh,
		token.KwMaek, token.KwIIz, token.KwMe, token.KwMahFrenz,
		token.KwWhatevr, token.KwWhatevar,
		token.KwIt, token.Ident, token.KwUr, token.KwMah, token.KwSrs:
		return true
	}
	return false
}
