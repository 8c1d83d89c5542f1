// Package progen generates random, well-formed parallel-LOLCODE programs
// for differential and round-trip testing. Generated programs are total:
// divisors are nonzero literals, variables only ever hold numbers, and
// boolean expressions appear only where truthiness is expected — so any
// behavioural divergence between two consumers (interpreter vs compiler,
// original vs formatted source) is a bug in a consumer, not luck.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Gen is a deterministic program generator seeded via New.
type Gen struct {
	rng  *rand.Rand
	b    strings.Builder
	vars []string
	ind  int
}

// New returns a generator; equal seeds generate equal programs.
func New(seed int64) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed))}
}

func (g *Gen) w(format string, args ...any) {
	g.b.WriteString(strings.Repeat("  ", g.ind))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// NumExpr produces a numeric expression of bounded depth.
func (g *Gen) NumExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.rng.Intn(21)-10)
		case 1:
			return fmt.Sprintf("%d.%d", g.rng.Intn(10), g.rng.Intn(100))
		default:
			return g.vars[g.rng.Intn(len(g.vars))]
		}
	}
	switch g.rng.Intn(7) {
	case 0:
		return fmt.Sprintf("SUM OF %s AN %s", g.NumExpr(depth-1), g.NumExpr(depth-1))
	case 1:
		return fmt.Sprintf("DIFF OF %s AN %s", g.NumExpr(depth-1), g.NumExpr(depth-1))
	case 2:
		return fmt.Sprintf("PRODUKT OF %s AN %s", g.NumExpr(depth-1), g.NumExpr(depth-1))
	case 3:
		// Divisor is a nonzero literal so evaluation is total.
		return fmt.Sprintf("QUOSHUNT OF %s AN %d", g.NumExpr(depth-1), g.rng.Intn(9)+1)
	case 4:
		return fmt.Sprintf("MOD OF %s AN %d", g.NumExpr(depth-1), g.rng.Intn(9)+1)
	case 5:
		return fmt.Sprintf("BIGGR OF %s AN %s", g.NumExpr(depth-1), g.NumExpr(depth-1))
	default:
		return fmt.Sprintf("SMALLR OF %s AN %s", g.NumExpr(depth-1), g.NumExpr(depth-1))
	}
}

// BoolExpr produces a TROOF expression of bounded depth.
func (g *Gen) BoolExpr(depth int) string {
	if depth <= 0 {
		if g.rng.Intn(2) == 0 {
			return "WIN"
		}
		return "FAIL"
	}
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("BOTH SAEM %s AN %s", g.NumExpr(depth-1), g.NumExpr(depth-1))
	case 1:
		return fmt.Sprintf("DIFFRINT %s AN %s", g.NumExpr(depth-1), g.NumExpr(depth-1))
	case 2:
		return fmt.Sprintf("BIGGER %s AN %s", g.NumExpr(depth-1), g.NumExpr(depth-1))
	case 3:
		return fmt.Sprintf("SMALLR %s AN %s", g.NumExpr(depth-1), g.NumExpr(depth-1))
	case 4:
		return fmt.Sprintf("NOT %s", g.BoolExpr(depth-1))
	default:
		return fmt.Sprintf("BOTH OF %s AN %s", g.BoolExpr(depth-1), g.BoolExpr(depth-1))
	}
}

// arrLen is the fixed length of the generated array; indices are always
// reduced MOD arrLen so access stays in range.
const arrLen = 8

// idxExpr produces an always-in-range array index.
func (g *Gen) idxExpr() string {
	return fmt.Sprintf("MOD OF BIGGR OF %s AN 0 AN %d", g.NumExpr(1), arrLen)
}

// Stmt emits one random statement with nesting bounded by depth.
func (g *Gen) Stmt(depth int) {
	switch g.rng.Intn(10) {
	case 0, 1:
		g.w("%s R %s", g.vars[g.rng.Intn(len(g.vars))], g.NumExpr(2))
	case 6:
		g.w("arr'Z %s R %s", g.idxExpr(), g.NumExpr(2))
	case 7:
		g.w("VISIBLE arr'Z %s", g.idxExpr())
	case 2:
		if g.rng.Intn(2) == 0 {
			g.w("VISIBLE %s", g.NumExpr(2))
		} else {
			g.w("VISIBLE %s", g.BoolExpr(2))
		}
	case 3:
		if depth <= 0 {
			g.w("VISIBLE %s", g.NumExpr(1))
			return
		}
		g.w("%s, O RLY?", g.BoolExpr(2))
		g.w("YA RLY")
		g.ind++
		g.Stmt(depth - 1)
		g.ind--
		if g.rng.Intn(2) == 0 {
			g.w("NO WAI")
			g.ind++
			g.Stmt(depth - 1)
			g.ind--
		}
		g.w("OIC")
	case 4:
		if depth <= 0 {
			g.w("VISIBLE %s", g.NumExpr(1))
			return
		}
		label := fmt.Sprintf("l%d", g.rng.Int31())
		bound := g.rng.Intn(4) + 1
		ctr := fmt.Sprintf("i%d", g.rng.Int31())
		g.w("IM IN YR %s UPPIN YR %s TIL BOTH SAEM %s AN %d", label, ctr, ctr, bound)
		g.ind++
		g.Stmt(depth - 1)
		g.ind--
		g.w("IM OUTTA YR %s", label)
	case 8:
		// Loop-head shapes the VM lowers to one compare-and-branch: a
		// compare against a fresh never-reassigned bound variable, or a
		// WILE comparison head. The counter only grows and the bound is
		// constant for the loop's lifetime, so both stay total.
		if depth <= 0 {
			g.w("VISIBLE %s", g.NumExpr(1))
			return
		}
		label := fmt.Sprintf("l%d", g.rng.Int31())
		ctr := fmt.Sprintf("i%d", g.rng.Int31())
		if g.rng.Intn(2) == 0 {
			bound := fmt.Sprintf("b%d", g.rng.Int31())
			g.w("I HAS A %s ITZ %d", bound, g.rng.Intn(4)+1)
			g.w("IM IN YR %s UPPIN YR %s TIL BOTH SAEM %s AN %s", label, ctr, ctr, bound)
		} else {
			g.w("IM IN YR %s UPPIN YR %s WILE SMALLR %s AN %d", label, ctr, ctr, g.rng.Intn(4)+1)
		}
		g.ind++
		g.Stmt(depth - 1)
		g.ind--
		g.w("IM OUTTA YR %s", label)
	case 9:
		// Array-element arithmetic (read-modify-write of one element).
		idx := g.idxExpr()
		g.w("arr'Z %s R SUM OF arr'Z %s AN %s", idx, idx, g.NumExpr(1))
	default:
		g.w("VISIBLE SMOOSH \"v=\" AN %s MKAY", g.NumExpr(1))
	}
}

// Program builds a complete program with the given number of top-level
// statements over a mixed pool of dynamic and SRSLY-typed variables,
// printing every variable at the end so divergence is observable.
func (g *Gen) Program(stmts int) string {
	g.b.Reset()
	g.vars = []string{"va", "vb", "vc", "sf", "si"}
	g.w("HAI 1.2")
	for _, v := range g.vars[:3] {
		g.w("I HAS A %s ITZ %d", v, g.rng.Intn(10))
	}
	g.w("I HAS A sf ITZ SRSLY A NUMBAR AN ITZ %d.%d", g.rng.Intn(5), g.rng.Intn(10))
	g.w("I HAS A si ITZ SRSLY A NUMBR AN ITZ %d", g.rng.Intn(10))
	g.w("I HAS A arr ITZ LOTZ A NUMBARS AN THAR IZ %d", arrLen)
	for i := 0; i < stmts; i++ {
		g.Stmt(2)
	}
	for _, v := range g.vars {
		g.w("VISIBLE %s", v)
	}
	g.w("VISIBLE arr'Z 0 \" \" arr'Z %d", arrLen-1)
	g.w("KTHXBYE")
	return g.b.String()
}
