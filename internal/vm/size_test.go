package vm_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/progen"
	"repro/internal/vm"
)

// TestCodeFitsItsFirstSize checks that Compile makes each chunk's code
// once: over the test corpus, the three kernels and serve-sized
// generated programs, no chunk's code outgrows the capacity it was made
// with, which its frame's AST node count sets.
func TestCodeFitsItsFirstSize(t *testing.T) {
	srcs := map[string]string{
		"montecarlo": experiments.GenMonteCarlo(60, 2),
		"nbody":      experiments.GenNBody(4, 1),
		"arith":      experiments.GenArithLoop(100),
	}
	for _, glob := range []string{"../../testdata/*.lol", "../../testdata/savina/*.lol"} {
		files, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			srcs[f] = string(b)
		}
	}
	if len(srcs) < 3+9+4 {
		t.Fatalf("found %d programs; the corpus is missing", len(srcs))
	}
	for seed := 0; seed < 150; seed++ {
		srcs[fmt.Sprintf("progen%d", seed)] = progen.New(int64(seed)).Program(40)
	}
	for name, src := range srcs {
		p := compileKernel(t, src)
		for _, ch := range append([]*vm.Chunk{p.Main}, p.Funcs...) {
			if want := vm.CodeCap(ch.Scope); cap(ch.Code) != want {
				t.Errorf("%s: chunk %s holds %d instructions; its code grew from %d to %d",
					name, ch.Name, len(ch.Code), want, cap(ch.Code))
			}
		}
	}
}
