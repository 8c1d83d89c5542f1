// Package gogen is the source-to-source half of the lcc pipeline: it
// translates a checked parallel-LOLCODE program into a standalone Go main
// package that calls the shmem runtime, exactly the way the paper's lcc
// translated LOLCODE into C calling OpenSHMEM. The host Go toolchain then
// builds the executable.
//
// The emitted program is a thin shim over internal/native/child: it
// declares the symmetric heap layout and the SPMD body and hands both to
// child.Main, which owns the flag surface (-np, -machine, -seed) and,
// under -serve, the subprocess protocol the lolserv native execution tier
// speaks. So
//
//	lcc -emit-go code.lol > gen/main.go && go run ./gen -np 16
//
// is this repository's `lcc code.lol -o x && coprsh -np 16 ./x`, and the
// same binary with -serve is one rung of the server's tier ladder.
//
// Limitations (documented in DESIGN.md): SRS with a runtime-computed name
// cannot be lowered to static Go variables and is rejected; the dynamic
// backends (interp, compile) support it. Check reports this up front
// without running the full emitter.
package gogen

import (
	"fmt"
	"go/format"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/sema"
	"repro/internal/value"
)

// Version names the code-generation scheme. It participates in every
// native-tier cache key — the on-disk binary cache AND the server's
// result-cache key salt — so bumping it on any change that can alter
// emitted-program behaviour invalidates stale binaries and stale cached
// native results in one move. Bump it whenever codegen semantics change.
const Version = "g3"

// Check reports whether the program can be lowered by this emitter,
// without paying for emission: it walks the AST for the constructs the
// static lowering cannot express (currently SRS, whose identifier is
// computed at runtime). The server's promotion policy calls it to mark
// unpromotable programs up front, before a build is ever queued.
func Check(info *sema.Info) error {
	var unsupported error
	ast.Walk(info.Prog, func(n ast.Node) bool {
		if unsupported != nil {
			return false
		}
		if s, ok := n.(*ast.Srs); ok {
			unsupported = fmt.Errorf(
				"gogen: %s: SRS resolves identifiers at runtime and cannot be lowered to static Go variables; use the interp or compile backend for SRS programs",
				s.Position)
			return false
		}
		return true
	})
	return unsupported
}

// Emit translates the checked program into gofmt-formatted Go source.
func Emit(info *sema.Info) ([]byte, error) {
	g := &gen{info: info, reps: computeReps(info)}
	src, err := g.program()
	if err != nil {
		return nil, err
	}
	out, err := format.Source([]byte(src))
	if err != nil {
		// A formatting failure is a bug in the generator; return the raw
		// source in the error so it can be inspected.
		return nil, fmt.Errorf("gogen: generated invalid Go: %w\n--- generated source ---\n%s", err, src)
	}
	return out, nil
}

type gen struct {
	info *sema.Info
	reps map[*sema.Symbol]rep // unboxed representation per private scalar
	buf  strings.Builder
	ind  int
	tmpN int

	scope *sema.Scope
	pred  []string // Go temps holding TXT MAH BFF targets (lexical stack)

	inFunc bool
	loops  []string // labels of enclosing Go loop/switch constructs
}

func (g *gen) tmp() string {
	g.tmpN++
	return fmt.Sprintf("t%d", g.tmpN)
}

func (g *gen) label() string {
	g.tmpN++
	return fmt.Sprintf("block%d", g.tmpN)
}

func (g *gen) w(format string, args ...any) {
	g.buf.WriteString(strings.Repeat("\t", g.ind))
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteByte('\n')
}

// failErr emits the error-propagation statement for the current context.
func (g *gen) failErr(errExpr string) {
	if g.inFunc {
		g.w("if %s != nil { return value.NOOB, %s }", errExpr, errExpr)
	} else {
		g.w("if %s != nil { return %s }", errExpr, errExpr)
	}
}

// goName maps a symbol to its Go variable name; slots disambiguate
// same-named loop counters.
func goName(sym *sema.Symbol) string {
	return fmt.Sprintf("s%d_%s", sym.Slot, sanitize(sym.Name))
}

func sanitize(name string) string {
	var b strings.Builder
	for _, r := range name {
		if r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		} else {
			b.WriteByte('x')
		}
	}
	return b.String()
}

func slotConst(sym *sema.Symbol) string { return "slot_" + sanitize(sym.Name) }
func lockConst(sym *sema.Symbol) string { return "lock_" + sanitize(sym.Name) }

func (g *gen) program() (string, error) {
	info := g.info
	g.w("// Code generated by lcc from %s. DO NOT EDIT.", info.Prog.File)
	g.w("")
	g.w("// This is the Go lowering of a parallel LOLCODE program; it plays the")
	g.w("// role the generated C played in Richie & Ross (2017): a standalone")
	g.w("// SPMD executable over a one-sided PGAS runtime.")
	g.w("package main")
	g.w("")
	g.w("import (")
	g.ind++
	g.w(`"fmt"`)
	g.w("")
	g.w(`"repro/internal/backend"`)
	g.w(`"repro/internal/native/child"`)
	g.w(`"repro/internal/shmem"`)
	g.w(`"repro/internal/value"`)
	g.ind--
	g.w(")")
	g.w("")
	g.w("// Not every program emits an error path that needs fmt.")
	g.w("var _ = fmt.Errorf")
	g.w("")

	// Symmetric heap layout and lock ids.
	if len(info.Shared) > 0 {
		g.w("// Symmetric heap layout (paper Figure 1): identical on every PE.")
		g.w("const (")
		g.ind++
		for _, s := range info.Shared {
			g.w("%s = %d", slotConst(s), s.Heap)
		}
		g.ind--
		g.w(")")
		g.w("")
	}
	if len(info.Locks) > 0 {
		g.w("// Implicit locks declared with AN IM SHARIN IT.")
		g.w("const (")
		g.ind++
		for _, s := range info.Locks {
			g.w("%s = %d", lockConst(s), s.Lock)
		}
		g.ind--
		g.w(")")
		g.w("")
	}

	g.w("// The harness (flags, live vs -serve protocol, output plumbing) lives")
	g.w("// in internal/native/child; this shim only supplies the program.")
	g.w("func main() {")
	g.ind++
	g.w("child.Main(child.Spec{")
	g.ind++
	g.w("Symbols: []shmem.SymbolSpec{")
	g.ind++
	for _, s := range info.Shared {
		g.w("{Name: %q, IsArray: %v, Elem: value.%s},", s.Name, s.IsArray, kindName(s.Type))
	}
	g.ind--
	g.w("},")
	g.w("Locks: %d,", len(info.Locks))
	g.w("Body:  program,")
	g.ind--
	g.w("})")
	g.ind--
	g.w("}")
	g.w("")

	// The SPMD body.
	g.scope = info.Main
	g.w("func program(pe *shmem.PE, peio backend.PEIO) error {")
	g.ind++
	g.declareSlots(info.Main)
	if err := g.stmts(info.Prog.Body); err != nil {
		return "", err
	}
	g.w("return nil")
	g.ind--
	g.w("}")

	// Functions, in name order for deterministic output.
	names := make([]string, 0, len(info.Funcs))
	for name := range info.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fi := info.Funcs[name]
		if err := g.function(fi); err != nil {
			return "", err
		}
	}

	return g.buf.String(), nil
}

func kindName(k value.Kind) string {
	switch k {
	case value.Numbr:
		return "Numbr"
	case value.Numbar:
		return "Numbar"
	case value.Yarn:
		return "Yarn"
	case value.Troof:
		return "Troof"
	case value.ArrayK:
		return "ArrayK"
	}
	return "Noob"
}

// declareSlots declares one Go variable per private frame slot (IT first).
// Statically-typed scalars declare as raw int64/float64 (see typed.go).
func (g *gen) declareSlots(scope *sema.Scope) {
	for _, sym := range scope.Order {
		if sym.Kind == sema.SymShared {
			continue
		}
		name := goName(sym)
		g.w("var %s %s", name, g.goType(sym))
		g.w("_ = %s", name)
	}
}

func (g *gen) function(fi *sema.FuncInfo) error {
	g.w("")
	g.w("// fn_%s is HOW IZ I %s.", sanitize(fi.Decl.Name), fi.Decl.Name)
	params := make([]string, 0, len(fi.Decl.Params)+2)
	params = append(params, "pe *shmem.PE", "peio backend.PEIO")
	for i, p := range fi.Decl.Params {
		sym := fi.Scope.Names[p]
		_ = i
		params = append(params, goName(sym)+" value.Value")
	}
	g.w("func fn_%s(%s) (value.Value, error) {", sanitize(fi.Decl.Name), strings.Join(params, ", "))
	g.ind++

	savedScope, savedInFunc, savedPred, savedLoops := g.scope, g.inFunc, g.pred, g.loops
	g.scope, g.inFunc, g.pred, g.loops = fi.Scope, true, nil, nil

	// Declare non-parameter slots (IT and local declarations).
	paramSet := make(map[string]bool, len(fi.Decl.Params))
	for _, p := range fi.Decl.Params {
		paramSet[p] = true
	}
	for _, sym := range fi.Scope.Order {
		if sym.Kind == sema.SymParam && paramSet[sym.Name] {
			continue
		}
		name := goName(sym)
		g.w("var %s %s", name, g.goType(sym))
		g.w("_ = %s", name)
	}

	err := g.stmts(fi.Decl.Body)

	g.w("return %s, nil // falling off the end returns IT", goName(fi.Scope.Order[0]))
	g.scope, g.inFunc, g.pred, g.loops = savedScope, savedInFunc, savedPred, savedLoops
	g.ind--
	g.w("}")
	return err
}

// symFor resolves a reference the same way the other backends do.
func (g *gen) symFor(v *ast.VarRef) (*sema.Symbol, error) {
	if s, ok := g.info.Refs[v]; ok {
		return s, nil
	}
	if s, ok := g.scope.Names[v.Name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("gogen: %s: unresolved variable %s", v.Position, v.Name)
}

// predTarget returns the innermost TXT MAH BFF target temp.
func (g *gen) predTarget(pos fmt.Stringer) (string, error) {
	if len(g.pred) == 0 {
		return "", fmt.Errorf("gogen: %s: UR outside TXT MAH BFF", pos)
	}
	return g.pred[len(g.pred)-1], nil
}
