package gogen

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/interp"
)

// TestGogenConformanceCorpus runs the shared backend fixture corpus —
// every row of the paper's Tables I-III — through the full §VI.E
// toolchain: emit each row to Go, compile all of them with ONE `go
// build` invocation (each row is its own main package), and require
// each binary's output to match the interpreter's for the same NP,
// seed, and stdin. This is the fourth column of the backend×fixture
// matrix: the other three engines already run this corpus in
// internal/conformance; the Go emitter must not be the odd one out.
//
// Outputs are compared order-normalized because the generated binary
// prints live (PE interleaving is scheduler-dependent), exactly like
// TestGoRunMatchesInterp. The documented SRS limitation is asserted,
// not skipped silently: a row that fails to emit must fail with the SRS
// diagnostic and must actually use SRS.
func TestGogenConformanceCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("go toolchain round trip is slow for -short")
	}
	type kase struct {
		idx  int
		row  conformance.Row
		prog *core.Program
	}
	var cases []kase
	mains := map[string][]byte{}
	for i, row := range conformance.All() {
		prog, err := core.Parse(fmt.Sprintf("row%02d.lol", i), row.Source)
		if err != nil {
			t.Fatalf("row %d (%s): parse: %v", i, row.Construct, err)
		}
		out, err := Emit(prog.Info)
		if err != nil {
			if strings.Contains(err.Error(), "SRS") && strings.Contains(row.Source, "SRS") {
				continue // the documented static-lowering limitation
			}
			t.Errorf("row %d (%s): emit: %v", i, row.Construct, err)
			continue
		}
		mains[fmt.Sprintf("row%02d", i)] = out
		cases = append(cases, kase{idx: i, row: row, prog: prog})
	}
	if len(cases) < 40 {
		t.Fatalf("only %d rows emitted; the corpus should be nearly all of Tables I-III", len(cases))
	}
	binDir := buildMains(t, "gen-corpus-", mains)

	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("row%02d_%s", c.idx, shorten(c.row.Construct)), func(t *testing.T) {
			t.Parallel()
			np := max(c.row.NP, 1)
			cmd := exec.Command(filepath.Join(binDir, fmt.Sprintf("row%02d", c.idx)),
				"-np", fmt.Sprint(np), "-seed", "2017")
			cmd.Stdin = strings.NewReader(c.row.Stdin)
			got, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("binary failed: %v\n%s\n--- program ---\n%s", err, got, c.row.Source)
			}

			var want strings.Builder
			if _, err := c.prog.Run(core.RunConfig{Config: interp.Config{
				NP: np, Seed: 2017, Stdout: &want,
				Stdin: strings.NewReader(c.row.Stdin), GroupOutput: true,
			}}); err != nil {
				t.Fatalf("interp failed: %v", err)
			}
			if sortLines(string(got)) != sortLines(want.String()) {
				t.Errorf("toolchain output diverges from interp:\ngo binary:\n%s\ninterp:\n%s\n--- program ---\n%s",
					got, want.String(), c.row.Source)
			}
		})
	}
}

// buildMains writes each emitted program as its own main package under a
// fresh directory inside the module (generated code imports
// repro/internal/...) and compiles them all with ONE `go build`: every
// program must compile, or the emitter produced invalid Go. It returns
// the directory holding one binary per map key. It skips the test when
// no go toolchain is installed.
func buildMains(t *testing.T, prefix string, mains map[string][]byte) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	moduleRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	genRoot, err := os.MkdirTemp(moduleRoot, prefix)
	if err != nil {
		t.Fatal(err)
	}
	// t.Cleanup, not defer: parallel subtests outlive the caller's body,
	// and the binaries must outlive them.
	t.Cleanup(func() { os.RemoveAll(genRoot) })
	for name, src := range mains {
		dir := filepath.Join(genRoot, name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "main.go"), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	binDir := filepath.Join(genRoot, "bin")
	if err := os.Mkdir(binDir, 0o755); err != nil {
		t.Fatal(err)
	}
	build := exec.Command(goTool, "build", "-o", binDir, "./"+filepath.Base(genRoot)+"/...")
	build.Dir = moduleRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("emitted programs do not compile: %v\n%s", err, out)
	}
	return binDir
}

// shorten mirrors the conformance test's subtest naming.
func shorten(s string) string {
	out := make([]rune, 0, 24)
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
		if len(out) == 24 {
			break
		}
	}
	return string(out)
}
