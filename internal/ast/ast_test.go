package ast_test

import (
	"os"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func parseNBody(t *testing.T) *ast.Program {
	t.Helper()
	src, err := os.ReadFile("../../testdata/nbody.lol")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse("nbody.lol", string(src))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestWalkVisitsEveryConstruct(t *testing.T) {
	prog := parseNBody(t)
	counts := map[string]int{}
	ast.Walk(prog, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Decl:
			counts["decl"]++
		case *ast.Loop:
			counts["loop"]++
		case *ast.Barrier:
			counts["hugz"]++
		case *ast.TxtBlock:
			counts["txtblock"]++
		case *ast.Index:
			counts["index"]++
		case *ast.BinExpr:
			counts["bin"]++
		}
		return true
	})
	// The paper listing has 17 declarations, 8 loops, 3 barriers (plus the
	// erratum barrier after initialization, see testdata/nbody.lol), and one
	// predicated block; the expression counts just need to be substantial.
	if counts["decl"] != 17 {
		t.Errorf("decls = %d, want 17", counts["decl"])
	}
	if counts["loop"] != 8 {
		t.Errorf("loops = %d, want 8", counts["loop"])
	}
	if counts["hugz"] != 4 {
		t.Errorf("barriers = %d, want 4 (3 from the paper + 1 erratum)", counts["hugz"])
	}
	if counts["txtblock"] != 1 {
		t.Errorf("txt blocks = %d, want 1", counts["txtblock"])
	}
	if counts["index"] < 25 || counts["bin"] < 40 {
		t.Errorf("suspiciously few expressions: %v", counts)
	}
}

func TestWalkPrune(t *testing.T) {
	prog := parseNBody(t)
	visited := 0
	ast.Walk(prog, func(n ast.Node) bool {
		visited++
		_, isLoop := n.(*ast.Loop)
		return !isLoop // do not descend into loops
	})
	pruned := 0
	ast.Walk(prog, func(n ast.Node) bool {
		pruned++
		return true
	})
	if visited >= pruned {
		t.Errorf("pruned walk visited %d nodes, full walk %d", visited, pruned)
	}
}

func TestDumpIsDeterministic(t *testing.T) {
	prog := parseNBody(t)
	if ast.Dump(prog) != ast.Dump(prog) {
		t.Error("Dump is not deterministic")
	}
}

func TestDumpIgnoresPositions(t *testing.T) {
	a, err := parser.Parse("a.lol", "HAI 1.2\nVISIBLE 1\nKTHXBYE")
	if err != nil {
		t.Fatal(err)
	}
	b, err := parser.Parse("b.lol", "HAI 1.2\n\n\n  VISIBLE   1\nKTHXBYE")
	if err != nil {
		t.Fatal(err)
	}
	if ast.Dump(a) != ast.Dump(b) {
		t.Errorf("Dump depends on layout:\n%s\n%s", ast.Dump(a), ast.Dump(b))
	}
}
