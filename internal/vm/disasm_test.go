package vm_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/vm"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDisassembleGoldenMonteCarlo pins the compiler's output on an E1
// kernel: any change to the lowering, the step weights or the operand
// encoding shows up as a readable diff against the golden listing.
// Regenerate with: go test ./internal/vm -run Golden -update
func TestDisassembleGoldenMonteCarlo(t *testing.T) {
	p := compileKernel(t, experiments.GenMonteCarlo(60, 2))
	got := vm.Disassemble(p)

	golden := filepath.Join("testdata", "montecarlo_disasm.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("disassembly drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
