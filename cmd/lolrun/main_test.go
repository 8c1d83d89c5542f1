package main_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI invokes one of this module's commands via `go run`.
func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	moduleRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goTool, append([]string{"run"}, args...)...)
	cmd.Dir = moduleRoot
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

// TestLolrunEndToEnd is the launcher workflow of §VI.E: run the Figure 2
// program on 4 PEs under the Parallella model with stats.
func TestLolrunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("toolchain test")
	}
	stdout, stderr, err := runCLI(t,
		"./cmd/lolrun", "-np", "4", "-group", "-stats", "-machine", "parallella",
		"testdata/fig2.lol")
	if err != nil {
		t.Fatalf("lolrun failed: %v\nstderr: %s", err, stderr)
	}
	want := "PE 0: a=10 b=40 c=50\nPE 1: a=20 b=10 c=30\nPE 2: a=30 b=20 c=50\nPE 3: a=40 b=30 c=70\n"
	if stdout != want {
		t.Errorf("stdout = %q, want %q", stdout, want)
	}
	for _, needle := range []string{"remote puts: 4", "barriers:", "sim time:"} {
		if !strings.Contains(stderr, needle) {
			t.Errorf("stats output missing %q:\n%s", needle, stderr)
		}
	}
}

func TestLolrunInterpBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("toolchain test")
	}
	stdout, stderr, err := runCLI(t,
		"./cmd/lolrun", "-np", "2", "-group", "-backend", "interp", "testdata/trylock.lol")
	if err != nil {
		t.Fatalf("lolrun failed: %v\nstderr: %s", err, stderr)
	}
	if !strings.Contains(stdout, "PE 0 DUN MESIN") {
		t.Errorf("unexpected output %q", stdout)
	}
}

// exitCode extracts the process exit code from a runCLI error; -1 means
// the command did not run or was killed.
func exitCode(err error) int {
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

// TestLolrunNonzeroExitOnRuntimeError asserts the launcher's exit-code
// contract: a program that dies mid-run (after producing output) must
// exit nonzero, never 0.
func TestLolrunNonzeroExitOnRuntimeError(t *testing.T) {
	if testing.Short() {
		t.Skip("toolchain test")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "dies.lol")
	src := "HAI 1.2\nVISIBLE \"before the crash\"\nVISIBLE QUOSHUNT OF 1 AN 0\nKTHXBYE\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := runCLI(t, "./cmd/lolrun", path)
	if err == nil {
		t.Fatalf("program that dies mid-run exited 0\nstdout: %s", stdout)
	}
	if code := exitCode(err); code <= 0 {
		t.Errorf("exit code = %d, want > 0", code)
	}
	if !strings.Contains(stderr, "division by zero") {
		t.Errorf("stderr missing the runtime error:\n%s", stderr)
	}
	if !strings.Contains(stdout, "before the crash") {
		t.Errorf("output before the crash was dropped:\n%s", stdout)
	}
}

// TestLolrunMaxStepsKillsInfiniteLoop checks the -max-steps budget kills
// a spin loop with a nonzero exit on every backend.
func TestLolrunMaxStepsKillsInfiniteLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("toolchain test")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "spin.lol")
	src := "HAI 1.2\nI HAS A x ITZ 0\nIM IN YR forever\n  x R SUM OF x AN 1\nIM OUTTA YR forever\nKTHXBYE\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"interp", "vm", "compile"} {
		_, stderr, err := runCLI(t, "./cmd/lolrun", "-backend", backend, "-max-steps", "50000", path)
		if err == nil {
			t.Fatalf("%s: infinite loop exited 0 under -max-steps", backend)
		}
		if code := exitCode(err); code <= 0 {
			t.Errorf("%s: exit code = %d, want > 0", backend, code)
		}
		if !strings.Contains(stderr, "step budget exceeded") {
			t.Errorf("%s: stderr missing budget error:\n%s", backend, stderr)
		}
	}
}

// TestLolrunDumpBytecode checks -dump-bytecode prints the listing (chunk
// header, the loop's typed arithmetic as a word op, step weights) and
// exits 0 without running the program.
func TestLolrunDumpBytecode(t *testing.T) {
	if testing.Short() {
		t.Skip("toolchain test")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "loop.lol")
	// The marker only exists at runtime (the listing shows the operands 40
	// and 2, never the sum), so its absence proves the program did not run.
	src := "HAI 1.2\nI HAS A x ITZ 0\nIM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\n  x R SUM OF x AN i\nIM OUTTA YR l\nVISIBLE SUM OF 40 AN 2\nKTHXBYE\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := runCLI(t, "./cmd/lolrun", "-dump-bytecode", path)
	if err != nil {
		t.Fatalf("lolrun -dump-bytecode failed: %v\n%s", err, stderr)
	}
	if strings.Contains(stdout, "42") {
		t.Errorf("-dump-bytecode executed the program:\n%s", stdout)
	}
	for _, needle := range []string{"== main", "w.sum.of.i", "SUM OF:i", "; w="} {
		if !strings.Contains(stdout, needle) {
			t.Errorf("listing missing %q:\n%s", needle, stdout)
		}
	}
}

func TestLolrunRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("toolchain test")
	}
	if _, _, err := runCLI(t, "./cmd/lolrun", "-machine", "cray-1", "testdata/fig2.lol"); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, _, err := runCLI(t, "./cmd/lolrun", "-backend", "jit", "testdata/fig2.lol"); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestLccCheckMode runs the compiler driver in -check mode over the n-body
// listing and expects the summary diagnostics on stderr.
func TestLccCheckMode(t *testing.T) {
	if testing.Short() {
		t.Skip("toolchain test")
	}
	_, stderr, err := runCLI(t, "./cmd/lcc", "-check", "testdata/nbody.lol")
	if err != nil {
		t.Fatalf("lcc -check failed: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "OK (2 shared symbols, 2 locks, 0 functions)") {
		t.Errorf("unexpected summary: %s", stderr)
	}
}

// TestLolfmtStdout checks the formatter CLI round-trips a program.
func TestLolfmtStdout(t *testing.T) {
	if testing.Short() {
		t.Skip("toolchain test")
	}
	stdout, stderr, err := runCLI(t, "./cmd/lolfmt", "testdata/fig2.lol")
	if err != nil {
		t.Fatalf("lolfmt failed: %v\n%s", err, stderr)
	}
	if !strings.HasPrefix(stdout, "HAI 1.2\n") || !strings.Contains(stdout, "TXT MAH BFF k,") {
		t.Errorf("unexpected formatter output:\n%s", stdout)
	}
}
