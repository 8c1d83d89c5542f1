package sema_test

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/sema"
)

func check(t *testing.T, src string) error {
	t.Helper()
	prog, err := parser.Parse("t.lol", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = sema.Check(prog)
	return err
}

func wantErr(t *testing.T, src, fragment string) {
	t.Helper()
	err := check(t, src)
	if err == nil {
		t.Fatalf("expected error containing %q, got none", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not contain %q", err, fragment)
	}
}

func TestWeHasAMustBeTopLevel(t *testing.T) {
	wantErr(t, `HAI 1.2
WIN, O RLY?
YA RLY
  WE HAS A x ITZ SRSLY A NUMBR
OIC
KTHXBYE`, "top level")
}

func TestWeHasAInFunctionRejected(t *testing.T) {
	wantErr(t, `HAI 1.2
HOW IZ I bad
  WE HAS A x ITZ SRSLY A NUMBR
IF U SAY SO
KTHXBYE`, "collective")
}

func TestSharinOnPrivateRejected(t *testing.T) {
	wantErr(t, "HAI 1.2\nI HAS A x ITZ A NUMBR AN IM SHARIN IT\nKTHXBYE", "WE HAS A")
}

func TestFoundYrOutsideFunction(t *testing.T) {
	wantErr(t, "HAI 1.2\nFOUND YR 1\nKTHXBYE", "outside of a function")
}

func TestGtfoAtTopLevel(t *testing.T) {
	wantErr(t, "HAI 1.2\nGTFO\nKTHXBYE", "outside")
}

func TestCallArityChecked(t *testing.T) {
	wantErr(t, `HAI 1.2
HOW IZ I f YR a AN YR b
  FOUND YR a
IF U SAY SO
VISIBLE I IZ f YR 1 MKAY
KTHXBYE`, "arguments")
}

func TestUnknownFunction(t *testing.T) {
	wantErr(t, "HAI 1.2\nVISIBLE I IZ nope MKAY\nKTHXBYE", "no such function")
}

func TestDuplicateFunction(t *testing.T) {
	wantErr(t, `HAI 1.2
HOW IZ I f
  GTFO
IF U SAY SO
HOW IZ I f
  GTFO
IF U SAY SO
KTHXBYE`, "declared twice")
}

func TestDuplicateParam(t *testing.T) {
	wantErr(t, `HAI 1.2
HOW IZ I f YR a AN YR a
  FOUND YR a
IF U SAY SO
KTHXBYE`, "duplicate parameter")
}

func TestUndeclaredVariable(t *testing.T) {
	wantErr(t, "HAI 1.2\nVISIBLE nope\nKTHXBYE", "has not been declared")
}

func TestUrOnPrivateRejected(t *testing.T) {
	wantErr(t, `HAI 1.2
I HAS A x ITZ 1
TXT MAH BFF 0, VISIBLE UR x
KTHXBYE`, "remotely addressable")
}

func TestIndexingScalarRejected(t *testing.T) {
	wantErr(t, `HAI 1.2
I HAS A x ITZ SRSLY A NUMBR
VISIBLE x'Z 0
KTHXBYE`, "not an array")
}

func TestArrayInitializerRejected(t *testing.T) {
	wantErr(t, "HAI 1.2\nI HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 4 AN ITZ 5\nKTHXBYE", "initializer")
}

func TestTharIzOnScalarRejected(t *testing.T) {
	// The parser already rejects a size clause on a scalar declaration.
	_, err := parser.Parse("t.lol", "HAI 1.2\nI HAS A x ITZ A NUMBR AN THAR IZ 5\nKTHXBYE")
	if err == nil || !strings.Contains(err.Error(), "LOTZ A") {
		t.Fatalf("want LOTZ A diagnostic from the parser, got %v", err)
	}
}

func TestMahOutsidePredicationRejected(t *testing.T) {
	wantErr(t, `HAI 1.2
WE HAS A x ITZ SRSLY A NUMBR
VISIBLE MAH x
KTHXBYE`, "TXT MAH BFF")
}

func TestSymmetricHeapLayoutIsDeclarationOrder(t *testing.T) {
	prog, err := parser.Parse("t.lol", `HAI 1.2
WE HAS A first ITZ SRSLY A NUMBR
I HAS A private ITZ 0
WE HAS A second ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4 AN IM SHARIN IT
WE HAS A third ITZ SRSLY A YARN AN IM SHARIN IT
KTHXBYE`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Shared) != 3 {
		t.Fatalf("shared symbols = %d, want 3", len(info.Shared))
	}
	for i, name := range []string{"first", "second", "third"} {
		if info.Shared[i].Name != name || info.Shared[i].Heap != i {
			t.Errorf("slot %d = %s (heap %d), want %s", i, info.Shared[i].Name, info.Shared[i].Heap, name)
		}
	}
	if len(info.Locks) != 2 {
		t.Fatalf("locks = %d, want 2", len(info.Locks))
	}
	if info.Locks[0].Name != "second" || info.Locks[1].Name != "third" {
		t.Errorf("lock order = %s, %s", info.Locks[0].Name, info.Locks[1].Name)
	}
	if !info.Shared[1].IsArray || info.Shared[1].Lock != 0 {
		t.Errorf("second: %+v", info.Shared[1])
	}
}

func TestLoopVarScopedToLoop(t *testing.T) {
	// An implicit loop counter is not visible after its loop.
	wantErr(t, `HAI 1.2
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3
  VISIBLE i
IM OUTTA YR l
VISIBLE i
KTHXBYE`, "has not been declared")
}

func TestItAlwaysVisible(t *testing.T) {
	if err := check(t, "HAI 1.2\nVISIBLE IT\nKTHXBYE"); err != nil {
		t.Errorf("IT should always resolve: %v", err)
	}
}

// TestSlotResolutionAnnotatesNodes checks the slot-resolution pass every
// backend shares: each VarRef, Decl, and counted Loop carries its resolved
// symbol with a stable frame slot and lexical depth.
func TestSlotResolutionAnnotatesNodes(t *testing.T) {
	prog, err := parser.Parse("t.lol", `HAI 1.2
HOW IZ I f YR p
  I HAS A local ITZ p
  FOUND YR local
IF U SAY SO
I HAS A x ITZ 1
I HAS A y ITZ 2
IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 2
  y R SUM OF y AN x
IM OUTTA YR loop
VISIBLE I IZ f YR y MKAY
KTHXBYE`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}

	syms := map[string]*sema.Symbol{}
	for _, s := range info.Main.Order {
		syms[s.Name] = s
	}
	// IT always owns slot 0; declarations follow in source order.
	for name, slot := range map[string]int{"IT": 0, "x": 1, "y": 2, "i": 3} {
		s := syms[name]
		if s == nil {
			t.Fatalf("main frame has no symbol %s", name)
		}
		if s.Slot != slot || s.Depth != 0 {
			t.Errorf("%s = slot %d depth %d, want slot %d depth 0", name, s.Slot, s.Depth, slot)
		}
	}
	for _, s := range info.Funcs["f"].Scope.Order {
		if s.Depth != 1 {
			t.Errorf("function symbol %s has depth %d, want 1", s.Name, s.Depth)
		}
	}

	// Every resolved node must carry the *Symbol its frame holds at the
	// symbol's slot.
	annotated := 0
	ast.Walk(prog, func(n ast.Node) bool {
		if v, ok := n.(*ast.VarRef); ok {
			sym, _ := v.Sym.(*sema.Symbol)
			frame := info.Main
			if sym != nil && sym.Depth == 1 {
				frame = info.Funcs["f"].Scope
			}
			if sym == nil {
				t.Errorf("VarRef %s at %s not annotated", v.Name, v.Position)
			} else if frame.Order[sym.Slot] != sym {
				t.Errorf("VarRef %s annotation is not its frame's slot %d symbol", v.Name, sym.Slot)
			}
			annotated++
		}
		return true
	})
	if annotated == 0 {
		t.Fatal("walk found no VarRefs")
	}
}

// TestInterpolationBinding checks that sema binds each :{var} reference:
// to the symbol visible where it appears (an implicit counter inside its
// loop), else to the finished frame's symbol (a read before the
// declaration), and reports a name neither has as undeclared.
func TestInterpolationBinding(t *testing.T) {
	wantErr(t, "HAI 1.2\nVISIBLE \"start\"\nVISIBLE \"x=:{nosuch}\"\nKTHXBYE", "variable nosuch has not been declared")
	wantErr(t, `HAI 1.2
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 2
IM OUTTA YR l
VISIBLE "i=:{i}"
KTHXBYE`, "variable i has not been declared")

	prog, err := parser.Parse("t.lol", `HAI 1.2
VISIBLE "w=:{w}"
I HAS A w ITZ 3
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 2
  VISIBLE "i=:{i} w=:{w}"
IM OUTTA YR l
KTHXBYE`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]sema.SymKind{"w": sema.SymPrivate, "i": sema.SymLoopVar}
	refs := 0
	ast.Walk(prog, func(n ast.Node) bool {
		if y, ok := n.(*ast.YarnLit); ok {
			for _, r := range y.Refs {
				refs++
				if sym, _ := r.Sym.(*sema.Symbol); sym == nil || sym.Kind != want[r.Name] || info.Main.Order[sym.Slot] != sym {
					t.Errorf(":{%s} bound to %v", r.Name, r.Sym)
				}
			}
		}
		return true
	})
	if refs != 3 {
		t.Errorf("found %d :{var} references, want 3", refs)
	}
}

// TestCounterRedeclaredInBody checks that the end of an implicit-counter
// loop hides the counter's name only while the name still means the
// counter: a declaration of that name in the body has run, and scoping
// is function-flat, so the name resolves to it after the loop.
func TestCounterRedeclaredInBody(t *testing.T) {
	prog, err := parser.Parse("t.lol", `HAI 1.2
I HAS A t ITZ 0
IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 3
  t R SUM OF t AN i
  I HAS A i ITZ 5
  i R SUM OF i AN t
IM OUTTA YR l
VISIBLE i " " t
KTHXBYE`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Body[1].(*ast.Loop)
	if sym := loop.Sym.(*sema.Symbol); sym.Kind != sema.SymLoopVar {
		t.Errorf("loop counts %v, want the implicit counter", sym.Kind)
	}
	after := prog.Body[2].(*ast.Visible).Args[0].(*ast.VarRef).Sym.(*sema.Symbol)
	if after.Kind != sema.SymPrivate || after != info.Main.Names["i"] {
		t.Errorf("i after the loop resolves to a %v symbol, want the body's declaration", after.Kind)
	}
}

// TestFrameFacts checks the per-frame facts Check records for code
// generators: whether the body holds an SRS, and its AST node count.
func TestFrameFacts(t *testing.T) {
	prog, err := parser.Parse("t.lol", `HAI 1.2
HOW IZ I f YR p
  FOUND YR SRS "p"
IF U SAY SO
I HAS A x ITZ SUM OF 1 AN 2
VISIBLE x
KTHXBYE`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	f := info.Funcs["f"].Scope
	// Main: the Decl, SUM OF and its two literals, VISIBLE and x. f: the
	// FOUND YR, the SRS and its YARN.
	if info.Main.Srs || info.Main.Nodes != 6 || !f.Srs || f.Nodes != 3 {
		t.Errorf("main srs=%v nodes=%d, f srs=%v nodes=%d; want false 6, true 3",
			info.Main.Srs, info.Main.Nodes, f.Srs, f.Nodes)
	}
}
