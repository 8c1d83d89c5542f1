package repro

// One benchmark group per paper artifact (see the experiment index in the
// internal/experiments package doc):
//
//	BenchmarkT1_*  — Table I: frontend (lexing, parsing, checking)
//	BenchmarkT2_*  — Table II: parallel primitives (barrier, put/get, locks)
//	BenchmarkT3_*  — Table III: math/random extensions
//	BenchmarkF2_*  — Figure 2: the barrier-synchronized neighbour exchange
//	BenchmarkE1_*  — interpreter vs compiled backend
//	BenchmarkE2_*  — weak-scaling n-body under machine models
//	BenchmarkE3_*  — lcc source-to-source emission
//
// Run all with: go test -bench=. -benchmem .

import (
	"fmt"
	"io"
	"os"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gogen"
	"repro/internal/interp"
	"repro/internal/lolfmt"
	"repro/internal/machine"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/shmem"
	"repro/internal/value"
)

func mustReadNBody(b *testing.B) string {
	b.Helper()
	src, err := os.ReadFile("testdata/nbody.lol")
	if err != nil {
		b.Fatal(err)
	}
	return string(src)
}

func mustParse(b *testing.B, src string) *core.Program {
	b.Helper()
	prog, err := core.Parse("bench.lol", src)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// --- T1: frontend over the paper's largest listing -------------------------

func BenchmarkT1_ParseNBody(b *testing.B) {
	src := mustReadNBody(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse("nbody.lol", src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1_CheckNBody(b *testing.B) {
	src := mustReadNBody(b)
	tree, err := parser.Parse("nbody.lol", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sema.Check(tree); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1_CompileNBody(b *testing.B) {
	src := mustReadNBody(b)
	tree, err := parser.Parse("nbody.lol", src)
	if err != nil {
		b.Fatal(err)
	}
	info, err := sema.Check(tree)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compile.Compile(info); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T2: parallel primitives ------------------------------------------------

func BenchmarkT2_Barrier(b *testing.B) {
	for _, np := range []int{4, 16} {
		b.Run(fmt.Sprintf("np%d", np), func(b *testing.B) {
			world, err := shmem.NewWorld(np, nil, 0, shmem.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			err = world.Run(func(pe *shmem.PE) error {
				for i := 0; i < b.N; i++ {
					if err := pe.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkT2_RemotePut(b *testing.B) {
	syms := []shmem.SymbolSpec{{Name: "x"}}
	world, err := shmem.NewWorld(2, syms, 0, shmem.Options{Model: machine.NewParallella()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	err = world.Run(func(pe *shmem.PE) error {
		if pe.ID() != 0 {
			return nil
		}
		v := value.NewNumbr(42)
		for i := 0; i < b.N; i++ {
			if err := pe.Put(1, 0, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkT2_RemoteGet(b *testing.B) {
	syms := []shmem.SymbolSpec{{Name: "x"}}
	world, err := shmem.NewWorld(2, syms, 0, shmem.Options{Model: machine.NewParallella()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	err = world.Run(func(pe *shmem.PE) error {
		if pe.ID() != 0 {
			return pe.InitScalar(0, value.NewNumbr(7))
		}
		for i := 0; i < b.N; i++ {
			if _, err := pe.Get(1, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkT2_ElemGetShared reads shared NUMBAR elements from both PEs at
// once, as nbody's force phase does: each PE reads its own array and its
// peer's. One op is one local plus one remote get. "value" reads through
// LocalGetElem and GetElem, as the in-process engines do; "typed" reads
// through LocalGetNumbar and GetNumbar, as gogen-emitted code does.
func BenchmarkT2_ElemGetShared(b *testing.B) {
	const size = 64
	b.Run("value", func(b *testing.B) {
		runSharedElems(b, size, func(pe *shmem.PE, peer int) error {
			for i := 0; i < b.N; i++ {
				if _, err := pe.LocalGetElem(0, i%size); err != nil {
					return err
				}
				if _, err := pe.GetElem(peer, 0, i%size); err != nil {
					return err
				}
			}
			return nil
		})
	})
	b.Run("typed", func(b *testing.B) {
		runSharedElems(b, size, func(pe *shmem.PE, peer int) error {
			for i := 0; i < b.N; i++ {
				if _, err := pe.LocalGetNumbar(0, i%size); err != nil {
					return err
				}
				if _, err := pe.GetNumbar(peer, 0, i%size); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// runSharedElems times reads on a 2-PE world whose PEs have each
// allocated a NUMBAR array of size elements.
func runSharedElems(b *testing.B, size int, reads func(pe *shmem.PE, peer int) error) {
	syms := []shmem.SymbolSpec{{Name: "pos", IsArray: true, Elem: value.Numbar}}
	world, err := shmem.NewWorld(2, syms, 0, shmem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = world.Run(func(pe *shmem.PE) error {
		if err := pe.AllocArray(0, size); err != nil {
			return err
		}
		if err := pe.Barrier(); err != nil {
			return err
		}
		return reads(pe, 1-pe.ID())
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkT2_LockUncontended(b *testing.B) {
	world, err := shmem.NewWorld(1, nil, 1, shmem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = world.Run(func(pe *shmem.PE) error {
		for i := 0; i < b.N; i++ {
			if err := pe.SetLock(0); err != nil {
				return err
			}
			if err := pe.ClearLock(0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkT2_LockContended(b *testing.B) {
	const np = 4
	world, err := shmem.NewWorld(np, nil, 1, shmem.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = world.Run(func(pe *shmem.PE) error {
		for i := 0; i < b.N/np+1; i++ {
			if err := pe.SetLock(0); err != nil {
				return err
			}
			if err := pe.ClearLock(0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// --- T3: additional extensions ----------------------------------------------

func BenchmarkT3_MathOps(b *testing.B) {
	x := value.NewNumbar(3.25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sq, err := value.Unary(value.OpSquar, x)
		if err != nil {
			b.Fatal(err)
		}
		root, err := value.Unary(value.OpUnsquar, sq)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := value.Unary(value.OpFlip, root); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT3_BinaryDispatch(b *testing.B) {
	x, y := value.NewNumbar(1.5), value.NewNumbr(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := value.Binary(value.OpSum, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F2: the Figure 2 neighbour exchange ------------------------------------

func BenchmarkF2_Exchange(b *testing.B) {
	src, err := os.ReadFile("testdata/fig2.lol")
	if err != nil {
		b.Fatal(err)
	}
	prog := mustParse(b, string(src))
	cp, err := prog.Compiled()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.Run(interp.Config{NP: 4, Seed: 1, Stdout: io.Discard}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E1: interpreter vs compiled backend ------------------------------------

func BenchmarkE1_Backends(b *testing.B) {
	src := experiments.GenNBody(8, 2)
	for _, backend := range []core.Backend{core.BackendInterp, core.BackendCompile} {
		backend := backend
		b.Run(backend.String(), func(b *testing.B) {
			prog := mustParse(b, src)
			if backend == core.BackendCompile {
				if _, err := prog.Compiled(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := prog.Run(core.RunConfig{
					Backend: backend,
					Config:  interp.Config{NP: 2, Seed: 7},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E2: weak scaling under the Parallella model ------------------------------

func BenchmarkE2_NBodyWeakScaling(b *testing.B) {
	for _, np := range []int{1, 2, 4, 8} {
		np := np
		b.Run(fmt.Sprintf("np%d", np), func(b *testing.B) {
			prog := mustParse(b, experiments.GenNBody(8, 2))
			cp, err := prog.Compiled()
			if err != nil {
				b.Fatal(err)
			}
			model := machine.NewParallella()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cp.Run(interp.Config{NP: np, Seed: 7, Model: model}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: the source-to-source emitter -----------------------------------------

func BenchmarkE3_EmitNBody(b *testing.B) {
	src := mustReadNBody(b)
	prog := mustParse(b, src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gogen.Emit(prog.Info); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3_FormatNBody(b *testing.B) {
	src := mustReadNBody(b)
	prog := mustParse(b, src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = lolfmt.Format(prog.AST)
	}
}

// --- Backend matrix: interp vs VM vs compile over the paper kernels ----------

// benchBackendKernels runs the montecarlo, nbody and E1 arith kernels —
// the three programs of the benchmark's kernels workload, at smaller
// sizes — on one backend so `benchstat` lines up the same kernel across
// BenchmarkBackend{Interp,VM,Compile}: the three-point trajectory of the
// paper's compiler-vs-interpreter claim across the execution design
// space.
func benchBackendKernels(b *testing.B, backend core.Backend) {
	kernels := []struct {
		name string
		src  string
		np   int
	}{
		{"montecarlo", experiments.GenMonteCarlo(2_000, 2), 2},
		{"nbody", experiments.GenNBody(8, 2), 2},
		{"arith", experiments.GenArithLoop(5_000), 1},
	}
	for _, k := range kernels {
		k := k
		b.Run(k.name, func(b *testing.B) {
			prog := mustParse(b, k.src)
			// Prepare outside the timed region, as a real launcher would.
			switch backend {
			case core.BackendCompile:
				if _, err := prog.Compiled(); err != nil {
					b.Fatal(err)
				}
			case core.BackendVM:
				if _, err := prog.Bytecode(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := prog.Run(core.RunConfig{
					Backend: backend,
					Config:  interp.Config{NP: k.np, Seed: 7, Stdout: io.Discard},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBackendInterp(b *testing.B)  { benchBackendKernels(b, core.BackendInterp) }
func BenchmarkBackendVM(b *testing.B)      { benchBackendKernels(b, core.BackendVM) }
func BenchmarkBackendCompile(b *testing.B) { benchBackendKernels(b, core.BackendCompile) }

// --- E1 ablation: what do the typed fast paths buy? --------------------------

func BenchmarkE1_SpecializationAblation(b *testing.B) {
	src := experiments.GenNBody(8, 2)
	tree, err := parser.Parse("ablation.lol", src)
	if err != nil {
		b.Fatal(err)
	}
	info, err := sema.Check(tree)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		opts compile.Options
	}{
		{"specialized", compile.Options{}},
		{"generic", compile.Options{DisableSpecialization: true}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			p, err := compile.CompileOpts(info, cfg.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(interp.Config{NP: 2, Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
