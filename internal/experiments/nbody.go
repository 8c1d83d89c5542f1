package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/shmem"
)

// GenNBody builds the paper's §VI.D 2D n-body program with a parameterized
// particle count and step count (the paper hard-codes 32 and 10). The
// algorithm, declarations and communication structure are the paper's.
func GenNBody(particles, steps int) string {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	p("HAI 1.2")
	p("I HAS A little_time ITZ SRSLY A NUMBAR AN ITZ 0.001")
	for _, v := range []string{"x", "y", "vx", "vy", "ax", "ay", "dx", "dy", "inv_d", "f"} {
		p("I HAS A %s ITZ SRSLY A NUMBAR", v)
	}
	for _, v := range []string{"vel_x", "vel_y", "tmppos_x", "tmppos_y"} {
		p("I HAS A %s ITZ SRSLY LOTZ A NUMBARS AN THAR IZ %d", v, particles)
	}
	p("WE HAS A pos_x ITZ SRSLY LOTZ A NUMBARS AN THAR IZ %d AN IM SHARIN IT", particles)
	p("WE HAS A pos_y ITZ SRSLY LOTZ A NUMBARS AN THAR IZ %d AN IM SHARIN IT", particles)
	p("HUGZ")
	p("IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN %d", particles)
	p("  pos_x'Z i R SUM OF ME AN WHATEVAR")
	p("  pos_y'Z i R SUM OF ME AN WHATEVAR")
	p("  vel_x'Z i R QUOSHUNT OF SUM OF ME AN WHATEVAR AN 1000")
	p("  vel_y'Z i R QUOSHUNT OF SUM OF ME AN WHATEVAR AN 1000")
	p("IM OUTTA YR loop")
	p("BTW erratum fix: synchronize initialization before the first force phase")
	p("HUGZ")
	p("IM IN YR loop UPPIN YR time TIL BOTH SAEM time AN %d", steps)
	p("  IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN %d", particles)
	p("    x R pos_x'Z i")
	p("    y R pos_y'Z i")
	p("    vx R vel_x'Z i")
	p("    vy R vel_y'Z i")
	p("    ax R 0")
	p("    ay R 0")
	p("    IM IN YR loop UPPIN YR j TIL BOTH SAEM j AN %d", particles)
	p("      DIFFRINT i AN j, O RLY?")
	p("      YA RLY")
	p("        dx R DIFF OF pos_x'Z i AN pos_x'Z j")
	p("        dy R DIFF OF pos_y'Z i AN pos_y'Z j")
	p("        dx R PRODUKT OF dx AN dx")
	p("        dy R PRODUKT OF dy AN dy")
	p("        inv_d R FLIP OF UNSQUAR OF SUM OF dx AN dy")
	p("        f R PRODUKT OF inv_d AN SQUAR OF inv_d")
	p("        ax R SUM OF ax AN PRODUKT OF dx AN f")
	p("        ay R SUM OF ay AN PRODUKT OF dy AN f")
	p("      OIC")
	p("    IM OUTTA YR loop")
	p("    IM IN YR loop UPPIN YR k TIL BOTH SAEM k AN MAH FRENZ")
	p("      DIFFRINT k AN ME, O RLY?")
	p("      YA RLY")
	p("        IM IN YR loop UPPIN YR j TIL BOTH SAEM j AN %d", particles)
	p("          TXT MAH BFF k AN STUFF")
	p("            dx R DIFF OF pos_x'Z i AN UR pos_x'Z j")
	p("            dy R DIFF OF pos_y'Z i AN UR pos_y'Z j")
	p("          TTYL")
	p("          dx R PRODUKT OF dx AN dx")
	p("          dy R PRODUKT OF dy AN dy")
	p("          inv_d R FLIP OF UNSQUAR OF SUM OF dx AN dy")
	p("          f R PRODUKT OF inv_d AN SQUAR OF inv_d")
	p("          ax R SUM OF ax AN PRODUKT OF dx AN f")
	p("          ay R SUM OF ay AN PRODUKT OF dy AN f")
	p("        IM OUTTA YR loop")
	p("      OIC")
	p("    IM OUTTA YR loop")
	p("    x R SUM OF x AN SUM OF PRODUKT OF vx AN little_time AN PRODUKT OF 0.5 AN PRODUKT OF ax AN SQUAR OF little_time")
	p("    y R SUM OF y AN SUM OF PRODUKT OF vy AN little_time AN PRODUKT OF 0.5 AN PRODUKT OF ay AN SQUAR OF little_time")
	p("    vx R SUM OF vx AN PRODUKT OF ax AN little_time")
	p("    vy R SUM OF vy AN PRODUKT OF ay AN little_time")
	p("    tmppos_x'Z i R x")
	p("    tmppos_y'Z i R y")
	p("    vel_x'Z i R vx")
	p("    vel_y'Z i R vy")
	p("  IM OUTTA YR loop")
	p("  HUGZ")
	p("  IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN %d", particles)
	p("    pos_x'Z i R tmppos_x'Z i")
	p("    pos_y'Z i R tmppos_y'Z i")
	p("  IM OUTTA YR loop")
	p("  HUGZ")
	p("IM OUTTA YR loop")
	p("KTHXBYE")
	return b.String()
}

// BackendsResult is one row of the E1 compiler-vs-interpreter comparison.
type BackendsResult struct {
	Workload string
	Interp   time.Duration
	VM       time.Duration
	Compile  time.Duration
}

// Speedup is the interpreter-to-compiler ratio.
func (r BackendsResult) Speedup() float64 {
	if r.Compile == 0 {
		return 0
	}
	return float64(r.Interp) / float64(r.Compile)
}

// VMSpeedup is the interpreter-to-VM ratio.
func (r BackendsResult) VMSpeedup() float64 {
	if r.VM == 0 {
		return 0
	}
	return float64(r.Interp) / float64(r.VM)
}

// VMOverCompile is the VM-to-compiler ratio: how far the bytecode tier
// trails the closure compiler (1.0 = parity). This is the number the
// VM's word ops drive down, and the one CI tracks against the committed
// baseline.
func (r BackendsResult) VMOverCompile() float64 {
	if r.Compile == 0 {
		return 0
	}
	return float64(r.VM) / float64(r.Compile)
}

// Backends measures experiment E1: the paper's claim that a compiler "is
// more flexible and efficient than an interpreter", now a three-way
// comparison across the design space — tree-walker, bytecode VM, closure
// compiler. Each workload runs on every backend with identical seeds;
// outputs are compared for agreement.
func Backends(w io.Writer) ([]BackendsResult, error) {
	workloads := []struct {
		name string
		src  string
		np   int
	}{
		{"scalar-arith (50k iters)", GenArithLoop(50_000), 1},
		{"array-stride (20k iters)", genArrayLoop(20_000), 1},
		{"montecarlo 20k darts np=2", GenMonteCarlo(20_000, 2), 2},
		{"nbody 16p x 4steps np=2", GenNBody(16, 4), 2},
		{"nbody 32p x 10steps np=2 (paper)", GenNBody(32, 10), 2},
	}

	fmt.Fprintf(w, "E1 — execution backends (paper: compiled LOLCODE vs interpreter)\n")
	fmt.Fprintf(w, "%-34s %-12s %-12s %-12s %-10s %-8s %-10s\n",
		"workload", "interp", "vm", "compile", "vm-speedup", "speedup", "vm/compile")

	var results []BackendsResult
	for _, wl := range workloads {
		prog, err := core.Parse("bench.lol", wl.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		run := func(b core.Backend) (time.Duration, string, error) {
			var out strings.Builder
			start := time.Now()
			_, err := prog.Run(core.RunConfig{
				Backend: b,
				Config:  interp.Config{NP: wl.np, Seed: 7, Stdout: &out, GroupOutput: true},
			})
			return time.Since(start), out.String(), err
		}
		iTime, iOut, err := run(core.BackendInterp)
		if err != nil {
			return nil, fmt.Errorf("%s interp: %w", wl.name, err)
		}
		vTime, vOut, err := run(core.BackendVM)
		if err != nil {
			return nil, fmt.Errorf("%s vm: %w", wl.name, err)
		}
		cTime, cOut, err := run(core.BackendCompile)
		if err != nil {
			return nil, fmt.Errorf("%s compile: %w", wl.name, err)
		}
		if iOut != cOut || iOut != vOut {
			return nil, fmt.Errorf("%s: backends disagree on output", wl.name)
		}
		r := BackendsResult{Workload: wl.name, Interp: iTime, VM: vTime, Compile: cTime}
		results = append(results, r)
		fmt.Fprintf(w, "%-34s %-12v %-12v %-12v %-10s %-8s %.2fx\n",
			r.Workload, r.Interp.Round(time.Microsecond), r.VM.Round(time.Microsecond),
			r.Compile.Round(time.Microsecond), fmt.Sprintf("%.2fx", r.VMSpeedup()),
			fmt.Sprintf("%.2fx", r.Speedup()), r.VMOverCompile())
	}
	return results, nil
}

// GenArithLoop builds experiment E1's scalar-arith loop: a SRSLY NUMBAR
// accumulator summing 1/(i+1) over iters iterations of a loop counter.
func GenArithLoop(iters int) string {
	return fmt.Sprintf(`HAI 1.2
I HAS A acc ITZ SRSLY A NUMBAR AN ITZ 0.0
IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN %d
  acc R SUM OF acc AN FLIP OF SUM OF i AN 1
IM OUTTA YR loop
VISIBLE acc
KTHXBYE`, iters)
}

func genArrayLoop(iters int) string {
	return fmt.Sprintf(`HAI 1.2
I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 64
IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN %d
  I HAS A idx ITZ A NUMBR
  idx R MOD OF i AN 64
  a'Z idx R SUM OF a'Z idx AN 1
IM OUTTA YR loop
VISIBLE a'Z 63
KTHXBYE`, iters)
}

// ScalingResult is one row of the E2 scaling experiment.
type ScalingResult struct {
	Machine    string
	NP         int
	Wall       time.Duration
	SimMicros  float64 // slowest PE's simulated communication time
	RemoteGets int64
}

// Scaling runs experiment E2: the same n-body source at growing PE counts
// under the Parallella and XC40 cost models — the paper's "scale from
// inexpensive parallel education platforms to the largest supercomputers".
// Weak scaling: per-PE work is constant, so ideal behaviour is flat wall
// time with communication growing as PEs are added.
func Scaling(w io.Writer, parallellaNP, xc40NP []int) ([]ScalingResult, error) {
	fmt.Fprintf(w, "E2 — weak scaling of the paper's n-body across machine models\n")
	fmt.Fprintf(w, "%-12s %-6s %-12s %-16s %-12s\n", "machine", "np", "wall", "sim comm (us)", "remote gets")

	var results []ScalingResult
	run := func(modelName string, np, particles, steps int) error {
		model, err := machine.ByName(modelName)
		if err != nil {
			return err
		}
		prog, err := core.Parse("scaling.lol", GenNBody(particles, steps))
		if err != nil {
			return err
		}
		start := time.Now()
		res, err := prog.Run(core.RunConfig{
			Backend: core.BackendCompile,
			Config:  interp.Config{NP: np, Seed: 7, Model: model},
		})
		if err != nil {
			return err
		}
		wall := time.Since(start)
		var slowest float64
		for _, ns := range res.SimNanos {
			if ns > slowest {
				slowest = ns
			}
		}
		r := ScalingResult{
			Machine:    modelName,
			NP:         np,
			Wall:       wall,
			SimMicros:  slowest / 1000,
			RemoteGets: res.Stats.RemoteGets,
		}
		results = append(results, r)
		fmt.Fprintf(w, "%-12s %-6d %-12v %-16.1f %-12d\n",
			r.Machine, r.NP, r.Wall.Round(time.Millisecond), r.SimMicros, r.RemoteGets)
		return nil
	}

	for _, np := range parallellaNP {
		if err := run("parallella", np, 16, 3); err != nil {
			return nil, err
		}
	}
	for _, np := range xc40NP {
		if err := run("xc40", np, 4, 2); err != nil {
			return nil, err
		}
	}
	fmt.Fprintln(w, "\nsame source, no changes: only -machine and -np differ (paper §I)")
	return results, nil
}

// BarrierScaling measures HUGZ latency per episode across PE counts (the
// T2 microbenchmark).
func BarrierScaling(w io.Writer, npList []int, episodes int) error {
	fmt.Fprintf(w, "T2 micro — HUGZ (barrier) wall latency per episode\n")
	fmt.Fprintf(w, "%-6s %-16s\n", "np", "latency")
	for _, np := range npList {
		world, err := shmem.NewWorld(np, nil, 0, shmem.Options{})
		if err != nil {
			return err
		}
		start := time.Now()
		err = world.Run(func(pe *shmem.PE) error {
			for k := 0; k < episodes; k++ {
				if err := pe.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-6d %-16v\n", np, time.Since(start)/time.Duration(episodes))
	}
	return nil
}
