// Package lexer implements the scanner for LOLCODE-1.2 with the parallel
// extensions of Richie & Ross (2017).
//
// Notable lexical rules handled here:
//
//   - Multi-word keywords ("TXT MAH BFF", "IM SRSLY MESIN WIF") are folded
//     into single tokens using longest-match against the token package trie.
//   - A statement ends at a newline or a comma; the triple dot "..." (or the
//     Unicode ellipsis '…') immediately before a newline continues the
//     logical line.
//   - "BTW" starts a line comment; "OBTW" ... "TLDR" is a block comment.
//   - YARN literals keep their raw escaped text; Decode translates the
//     ":)"-style escapes and splits out ":{var}" interpolations.
package lexer

import (
	"fmt"
	"strings"

	"repro/internal/token"
)

// Error is a lexical error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans LOLCODE source into tokens.
type Lexer struct {
	src  string
	file string

	off  int // current byte offset
	line int
	col  int

	atLineStart bool // no token emitted yet on this logical line
	errs        []*Error
}

// New returns a lexer over src. file is used in positions and errors.
func New(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1, atLineStart: true}
}

// Errors returns the lexical errors encountered so far.
func (lx *Lexer) Errors() []*Error { return lx.errs }

func (lx *Lexer) errorf(pos token.Pos, format string, args ...any) {
	lx.errs = append(lx.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (lx *Lexer) pos() token.Pos {
	return token.Pos{File: lx.file, Line: lx.line, Col: lx.col}
}

// state snapshots the scanner position for backtracking during
// multi-word keyword matching.
type state struct {
	off, line, col int
}

func (lx *Lexer) save() state     { return state{lx.off, lx.line, lx.col} }
func (lx *Lexer) restore(s state) { lx.off, lx.line, lx.col = s.off, s.line, s.col }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peekAt(n int) byte {
	if lx.off+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+n]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

// skipBlanks consumes spaces, tabs, carriage returns, line continuations,
// and comments that do not terminate the logical line.
// It stops at a newline, comma, or any other token byte. Only a byte that
// can begin a continuation or a comment takes a prefix check.
func (lx *Lexer) skipBlanks() {
	for lx.off < len(lx.src) {
		switch rest := lx.src[lx.off:]; rest[0] {
		case ' ', '\t', '\r':
			lx.off++
			lx.col++
		case '.', "…"[0]:
			// Line continuation: "..." or "…", blanks and exactly one
			// newline; the logical line continues.
			if !strings.HasPrefix(rest, "...") && !strings.HasPrefix(rest, "…") {
				return
			}
			if rest[0] == '.' {
				lx.col += 2 // "..." takes three columns, "…" one
			}
			lx.off += 3 // both marks are three bytes
			lx.col++
			for lx.peek() == ' ' || lx.peek() == '\t' || lx.peek() == '\r' {
				lx.advance()
			}
			if lx.peek() == '\n' {
				lx.advance()
			}
		case 'B':
			if lx.startsWord("BTW") {
				for lx.off < len(lx.src) && lx.peek() != '\n' {
					lx.advance()
				}
			}
			return
		case 'O':
			if !lx.atLineStart || !lx.startsWord("OBTW") {
				return
			}
			lx.skipBlockComment()
		default:
			return
		}
	}
}

// startsWord reports whether the input at the current offset begins with the
// given bare word (followed by a non-word byte).
func (lx *Lexer) startsWord(w string) bool {
	if !strings.HasPrefix(lx.src[lx.off:], w) {
		return false
	}
	after := lx.off + len(w)
	if after < len(lx.src) && isWordByte(lx.src[after]) {
		return false
	}
	return true
}

func (lx *Lexer) skipBlockComment() {
	start := lx.pos()
	for i := 0; i < len("OBTW"); i++ {
		lx.advance()
	}
	for lx.off < len(lx.src) {
		if lx.startsWord("TLDR") {
			for i := 0; i < len("TLDR"); i++ {
				lx.advance()
			}
			// Consume trailing blanks and the line break ending the comment.
			for lx.peek() == ' ' || lx.peek() == '\t' || lx.peek() == '\r' {
				lx.advance()
			}
			if lx.peek() == '\n' {
				lx.advance()
			}
			return
		}
		lx.advance()
	}
	lx.errorf(start, "unterminated OBTW comment (missing TLDR)")
}

func isWordStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isWordByte(c byte) bool {
	return isWordStart(c) || c >= '0' && c <= '9'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next scans and returns the next token.
func (lx *Lexer) Next() token.Token {
	lx.skipBlanks()
	pos := lx.pos()

	if lx.off >= len(lx.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}

	c := lx.peek()
	switch {
	case c == '\n' || c == ',':
		lx.advance()
		lx.atLineStart = true
		// Collapse runs of separators into one Newline token.
		for {
			lx.skipBlanks()
			if b := lx.peek(); b == '\n' || b == ',' {
				lx.advance()
				continue
			}
			break
		}
		return token.Token{Kind: token.Newline, Pos: pos}

	case c == '?':
		lx.advance()
		lx.atLineStart = false
		return token.Token{Kind: token.Question, Pos: pos}

	case c == '!':
		lx.advance()
		lx.atLineStart = false
		return token.Token{Kind: token.Bang, Pos: pos}

	case c == '\'' && (lx.peekAt(1) == 'Z' || lx.peekAt(1) == 'z') && !isWordByte(lx.peekAt(2)):
		lx.advance()
		lx.advance()
		lx.atLineStart = false
		return token.Token{Kind: token.IndexZ, Pos: pos}

	case c == '"':
		lx.atLineStart = false
		return lx.scanYarn(pos)

	case isDigit(c) || (c == '-' && isDigit(lx.peekAt(1))):
		lx.atLineStart = false
		return lx.scanNumber(pos)

	case isWordStart(c):
		lx.atLineStart = false
		return lx.scanWordOrKeyword(pos)

	default:
		lx.advance()
		lx.errorf(pos, "unexpected character %q", c)
		return token.Token{Kind: token.Illegal, Pos: pos, Text: string(c)}
	}
}

func (lx *Lexer) scanNumber(pos token.Pos) token.Token {
	start := lx.off
	if lx.peek() == '-' {
		lx.advance()
	}
	for isDigit(lx.peek()) {
		lx.advance()
	}
	isFloat := false
	if lx.peek() == '.' && isDigit(lx.peekAt(1)) {
		isFloat = true
		lx.advance()
		for isDigit(lx.peek()) {
			lx.advance()
		}
	}
	// Exponent form is accepted for convenience in generated workloads.
	if b := lx.peek(); b == 'e' || b == 'E' {
		i := 1
		if lx.peekAt(i) == '+' || lx.peekAt(i) == '-' {
			i++
		}
		if isDigit(lx.peekAt(i)) {
			isFloat = true
			lx.advance() // e
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			for isDigit(lx.peek()) {
				lx.advance()
			}
		}
	}
	text := lx.src[start:lx.off]
	if isFloat {
		return token.Token{Kind: token.NumbarLit, Pos: pos, Text: text}
	}
	return token.Token{Kind: token.NumbrLit, Pos: pos, Text: text}
}

// scanYarn scans a double-quoted YARN literal, keeping the raw interior
// (escapes undecoded) so the formatter can round-trip the source exactly.
func (lx *Lexer) scanYarn(pos token.Pos) token.Token {
	lx.advance() // opening quote
	start := lx.off
	for lx.off < len(lx.src) {
		c := lx.peek()
		if c == '\n' {
			lx.errorf(pos, "unterminated YARN literal")
			text := lx.src[start:lx.off]
			return token.Token{Kind: token.YarnLit, Pos: pos, Text: text}
		}
		if c == ':' {
			// Escape: consume the colon plus the escape body so an escaped
			// quote does not terminate the literal.
			lx.advance()
			switch lx.peek() {
			case '(', '{', '[':
				closeB := ")}]"[strings.IndexByte("({[", lx.advance())]
				for lx.off < len(lx.src) && lx.peek() != closeB && lx.peek() != '\n' {
					lx.advance()
				}
				if lx.peek() == closeB {
					lx.advance()
				}
			default:
				if lx.off < len(lx.src) {
					lx.advance()
				}
			}
			continue
		}
		if c == '"' {
			text := lx.src[start:lx.off]
			lx.advance() // closing quote
			return token.Token{Kind: token.YarnLit, Pos: pos, Text: text}
		}
		lx.advance()
	}
	lx.errorf(pos, "unterminated YARN literal")
	return token.Token{Kind: token.YarnLit, Pos: pos, Text: lx.src[start:lx.off]}
}

// scanWordOrKeyword scans an identifier and folds multi-word keyword
// phrases into a single token by longest match. Each word is looked up
// once, as the matcher is fed it.
func (lx *Lexer) scanWordOrKeyword(pos token.Pos) token.Token {
	first := lx.scanBareWord()
	var m token.Matcher
	if !m.Feed(first) {
		return token.Token{Kind: token.Ident, Pos: pos, Text: first}
	}
	bestKind, _ := m.Best()
	bestState := lx.save()
	wordsRead := 1

	for m.CanExtend() {
		// Peek the next word on the same logical line.
		s := lx.save()
		lx.skipBlanks()
		if !isWordStart(lx.peek()) {
			lx.restore(s)
			break
		}
		w := lx.scanBareWord()
		if !m.Feed(w) {
			lx.restore(s)
			break
		}
		wordsRead++
		if k, l := m.Best(); l == wordsRead {
			bestKind = k
			bestState = lx.save()
		}
	}
	lx.restore(bestState)
	if bestKind == token.Illegal {
		// Started like a keyword but no complete phrase: identifier.
		return token.Token{Kind: token.Ident, Pos: pos, Text: first}
	}
	return token.Token{Kind: bestKind, Pos: pos}
}

func (lx *Lexer) scanBareWord() string {
	start := lx.off
	for lx.off < len(lx.src) && isWordByte(lx.src[lx.off]) {
		lx.off++
	}
	lx.col += lx.off - start // a word holds no line break
	return lx.src[start:lx.off]
}

// ScanAll tokenizes the whole input, always ending with an EOF token. The
// parser pulls tokens from Next one at a time and does not call it; the
// lexer's tests and the benchmark's lexer figure do.
func ScanAll(file, src string) ([]token.Token, []*Error) {
	lx := New(file, src)
	// Programs average about five bytes a token.
	toks := make([]token.Token, 0, len(src)/4+8)
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			break
		}
	}
	return toks, lx.Errors()
}
