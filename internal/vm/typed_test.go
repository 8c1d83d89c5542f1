package vm_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/sema"
	"repro/internal/vm"
)

// The typed-op parity test: generated programs drive every word opcode
// the VM compiler emits for an operator through every operand source and
// consumer, and every in-process engine must match interp on them.

// typedCase is one generated program. Every operation op in it is a word
// op of kind mark ("i" or "f") in the VM's listing, consumed as form.
type typedCase struct {
	name, src, op, mark, form string
}

var (
	typedBinOps = []string{
		"SUM OF", "DIFF OF", "PRODUKT OF", "QUOSHUNT OF", "MOD OF", "BIGGR OF",
		"SMALLR OF", "BIGGER", "SMALLR", "BOTH SAEM", "DIFFRINT",
	}
	typedUnOps = []string{"SQUAR OF", "UNSQUAR OF", "FLIP OF"}

	// Operand values by kind: zero, one, a negative, the largest NUMBR,
	// 2^53+1 (the first NUMBR a float64 cannot hold) and 2^53.
	typedValues = map[string][]string{
		"NUMBR":  {"0", "1", "-7", "9223372036854775807", "9007199254740993"},
		"NUMBAR": {"0.0", "0.5", "-2.5", "9007199254740992.0"},
	}

	// Where an operand comes from: an inferred private, a SRSLY private,
	// a literal, or an element of a typed array.
	typedSources = []string{"inferred", "srsly", "literal", "elem"}

	// What consumes the operation: a VISIBLE argument (an expression on
	// the stack), a loop head's compare-and-branch, a store into an
	// inferred private, an identity store into a SRSLY private, and a
	// casting store into a SRSLY private of another type. A comparison
	// is also tested by an O RLY? after it and as a MEBBE condition, the
	// IT branch, whose arms print IT.
	typedBinForms = []string{"expr", "head", "store", "srsly", "cast"}
	typedCmpForms = []string{"orly", "mebbe"}
	typedUnForms  = []string{"expr", "store", "srsly"}
)

// typedFails reports whether op fails on these operands: division and
// modulo by zero, UNSQUAR of a negative, FLIP of zero.
func typedFails(op, x, y string) bool {
	zero := func(s string) bool { return s == "0" || s == "0.0" }
	switch op {
	case "QUOSHUNT OF", "MOD OF":
		return zero(y)
	case "UNSQUAR OF":
		return strings.HasPrefix(x, "-")
	case "FLIP OF":
		return zero(x)
	}
	return false
}

// operand declares a variable named name of kind k from source src and
// returns its declaration, how to set it to a value, and how to read it.
func operand(name, k, src string) (decl string, set func(v string) string, read func(v string) string) {
	set = func(string) string { return "" }
	read = func(string) string { return name }
	switch src {
	case "inferred":
		decl = fmt.Sprintf("I HAS A %s ITZ %s\n", name, typedValues[k][0])
		set = func(v string) string { return fmt.Sprintf("%s R %s\n", name, v) }
	case "srsly":
		decl = fmt.Sprintf("I HAS A %s ITZ SRSLY A %s\n", name, k)
		set = func(v string) string { return fmt.Sprintf("%s R %s\n", name, v) }
	case "literal":
		read = func(v string) string { return v }
	case "elem":
		decl = fmt.Sprintf("I HAS A %s ITZ LOTZ A %sS AN THAR IZ 1\n", name, k)
		set = func(v string) string { return fmt.Sprintf("%s'Z 0 R %s\n", name, v) }
		read = func(string) string { return name + "'Z 0" }
	}
	return decl, set, read
}

// resultDecl declares r for a store form, given the kind the operation
// yields.
func resultDecl(form, kind string) string {
	other := map[string]string{"NUMBR": "NUMBAR", "NUMBAR": "NUMBR", "TROOF": "NUMBR"}
	switch form {
	case "store":
		if kind == "TROOF" {
			return "I HAS A r ITZ FAIL\n"
		}
		return fmt.Sprintf("I HAS A r ITZ %s\n", typedValues[kind][0])
	case "srsly":
		return fmt.Sprintf("I HAS A r ITZ SRSLY A %s\n", kind)
	case "cast":
		return fmt.Sprintf("I HAS A r ITZ SRSLY A %s\n", other[kind])
	}
	return ""
}

// consume is the statement that evaluates expr in form.
func consume(form, expr string) string {
	switch form {
	case "expr":
		return "VISIBLE " + expr + "\n"
	case "head":
		return "IM IN YR l UPPIN YR k TIL " + expr + "\n  VISIBLE \"F\"\n  GTFO\nIM OUTTA YR l\nVISIBLE \".\"\n"
	case "orly":
		return expr + ", O RLY?\nYA RLY\n  VISIBLE \"Y \" IT\nNO WAI\n  VISIBLE \"N \" IT\nOIC\n"
	case "mebbe":
		return "FAIL, O RLY?\nYA RLY\n  VISIBLE \"?\"\nMEBBE " + expr + "\n  VISIBLE \"M \" IT\nNO WAI\n  VISIBLE \"N \" IT\nOIC\n"
	}
	return "r R " + expr + "\nVISIBLE r\n"
}

// typedCases generates the programs. Each evaluates its operation on
// every operand pair that succeeds, then on the first that fails, so a
// failing operation ends the program with its error.
func typedCases() []typedCase {
	kinds := []string{"NUMBR", "NUMBAR"}
	// A mixed pair widens its NUMBR, so the op is a NUMBAR op.
	mark := func(kx, ky string) string {
		if kx == "NUMBR" && ky == "NUMBR" {
			return "i"
		}
		return "f"
	}
	var cases []typedCase
	for _, op := range typedBinOps {
		cmp := op == "BIGGER" || op == "SMALLR" || op == "BOTH SAEM" || op == "DIFFRINT"
		forms := typedBinForms
		if cmp {
			forms = slices.Concat(typedBinForms, typedCmpForms)
		}
		resKind := func(kx, ky string) string {
			switch {
			case cmp:
				return "TROOF"
			case kx == "NUMBR" && ky == "NUMBR":
				return "NUMBR"
			}
			return "NUMBAR"
		}
		for _, kx := range kinds {
			for _, ky := range kinds {
				var pairs [][2]string
				var failing [][2]string
				for _, x := range typedValues[kx] {
					for _, y := range typedValues[ky] {
						if typedFails(op, x, y) {
							failing = append(failing, [2]string{x, y})
						} else {
							pairs = append(pairs, [2]string{x, y})
						}
					}
				}
				if len(failing) > 0 {
					pairs = append(pairs, failing[0])
				}
				for _, form := range forms {
					for _, sx := range typedSources {
						for _, sy := range typedSources {
							xd, xset, xread := operand("x", kx, sx)
							yd, yset, yread := operand("y", ky, sy)
							var b strings.Builder
							b.WriteString("HAI 1.2\n" + xd + yd + resultDecl(form, resKind(kx, ky)))
							for _, p := range pairs {
								b.WriteString(xset(p[0]) + yset(p[1]))
								b.WriteString(consume(form, fmt.Sprintf("%s %s AN %s", op, xread(p[0]), yread(p[1]))))
							}
							b.WriteString("KTHXBYE\n")
							cases = append(cases, typedCase{
								name: fmt.Sprintf("%s/%s_%s/%s/%s_%s", op, kx, ky, form, sx, sy),
								src:  b.String(), op: op, mark: mark(kx, ky), form: form,
							})
						}
					}
				}
			}
		}
	}
	for _, op := range typedUnOps {
		for _, k := range kinds {
			resKind := "NUMBAR"
			if op == "SQUAR OF" {
				resKind = k
			}
			var vals, failing []string
			for _, x := range typedValues[k] {
				if typedFails(op, x, "") {
					failing = append(failing, x)
				} else {
					vals = append(vals, x)
				}
			}
			if len(failing) > 0 {
				vals = append(vals, failing[0])
			}
			for _, form := range typedUnForms {
				for _, sx := range typedSources {
					xd, xset, xread := operand("x", k, sx)
					var b strings.Builder
					b.WriteString("HAI 1.2\n" + xd + resultDecl(form, resKind))
					for _, v := range vals {
						b.WriteString(xset(v) + consume(form, op+" "+xread(v)))
					}
					b.WriteString("KTHXBYE\n")
					cases = append(cases, typedCase{
						name: fmt.Sprintf("%s/%s/%s/%s", op, k, form, sx),
						src:  b.String(), op: op, mark: mark(k, k)[:1], form: form,
					})
				}
			}
		}
	}
	return cases
}

// runTyped runs info on b at NP 1 under a step budget and renders the
// output bytes and the outcome, with a runtime error's position.
func runTyped(b backend.Backend, info *sema.Info) string {
	var out strings.Builder
	_, err := b.Run(info, backend.Config{NP: 1, Seed: 2017, Stdout: &out, GroupOutput: true, StepBudget: 1_000_000})
	var re *backend.RuntimeError
	switch {
	case errors.As(err, &re):
		return fmt.Sprintf("%s\nerror at %s: %v", out.String(), re.Pos, re.Err)
	case err != nil:
		return fmt.Sprintf("%s\nerror: %v", out.String(), err)
	}
	return out.String() + "\nok"
}

// wordOpName is the listing name of op's word opcode of kind mark, e.g.
// "w.sum.of.f"; prefix is "w." or, for a compare-and-branch, "w.jump.".
func wordOpName(prefix, op, mark string) string {
	return prefix + strings.ToLower(strings.ReplaceAll(op, " ", ".")) + "." + mark
}

// TestTypedOpsMatchInterp requires every registered in-process engine to
// print interp's bytes and end with its outcome, error text and position
// on every generated program. Through the VM's listing it also requires
// that each program's operation is a word op of the program's kind
// wherever it occurs (the IT branch for an O RLY? or MEBBE consumer), and
// that every word opcode of every operator, and the widening of a NUMBR
// operand, occurs, so the test cannot pass by falling back to dynamic
// ops.
func TestTypedOpsMatchInterp(t *testing.T) {
	ref, err := backend.ByName("interp")
	if err != nil {
		t.Fatal(err)
	}
	engines := backend.All()
	seen := map[string]bool{}
	for _, c := range typedCases() {
		prog, err := core.Parse("typed.lol", c.src)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", c.name, err, c.src)
		}
		p, err := vm.Compile(prog.Info)
		if err != nil {
			t.Fatalf("%s: vm compile: %v", c.name, err)
		}
		listing := vm.Disassemble(p)
		typed := c.op + ":" + c.mark + " "
		n, m := 0, 0
		for _, line := range strings.Split(listing, "\n") {
			f := strings.Fields(line)
			if len(f) > 1 && strings.HasPrefix(f[1], "w.") {
				seen[f[1]] = true
			}
			if i := strings.Index(line, c.op); i >= 0 {
				n++
				switch {
				case !strings.HasPrefix(line[i:], typed):
				case slices.Contains(typedCmpForms, c.form):
					if f[1] == "w.jump.it" {
						m++
					}
				case f[1] == wordOpName("w.", c.op, c.mark), f[1] == wordOpName("w.jump.", c.op, c.mark),
					f[1] == wordOpName("w.", strings.TrimSuffix(c.op, " OF"), c.mark): // the unaries
					m++
				}
			}
		}
		if n == 0 || m != n {
			t.Errorf("%s: %d of %d occurrences of %s are word ops of kind %s\n%s", c.name, m, n, c.op, c.mark, listing)
		}

		want := runTyped(ref, prog.Info)
		for _, b := range engines {
			if got := runTyped(b, prog.Info); got != want {
				t.Errorf("%s: %s printed\n%s\ninterp printed\n%s\nprogram:\n%s", c.name, b.Name(), got, want, c.src)
			}
		}
	}
	want := []string{"w.widen", "w.trunc", "w.jump.it"}
	for _, mark := range []string{"i", "f"} {
		for _, op := range typedBinOps {
			want = append(want, wordOpName("w.", op, mark))
			switch op {
			case "BIGGER", "SMALLR", "BOTH SAEM", "DIFFRINT":
				want = append(want, wordOpName("w.jump.", op, mark))
			}
		}
		for _, op := range typedUnOps {
			want = append(want, wordOpName("w.", strings.TrimSuffix(op, " OF"), mark))
		}
	}
	for _, op := range want {
		if !seen[op] {
			t.Errorf("no %s occurred", op)
		}
	}
}
