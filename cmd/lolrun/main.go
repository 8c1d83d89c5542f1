// Command lolrun launches a parallel-LOLCODE program SPMD, playing the role
// of the paper's coprsh (Parallella) and aprun (Cray XC40) launchers:
//
//	lolrun -np 16 -machine parallella testdata/nbody.lol
//	lolrun -np 1024 -machine xc40 -backend interp testdata/fig2.lol
//	lolrun -np 4 -backend vm -timeout 5s -max-steps 1000000 testdata/fig2.lol
//
// The -backend flag selects the execution engine (any registered
// backend.Backend: interp, vm, or compile); -machine selects the latency
// model the PGAS runtime charges for one-sided operations; -stats prints
// the operation counters and per-PE simulated time after the run.
// -timeout bounds the run's wall clock and -max-steps bounds each PE's
// step count, the same budgets cmd/lolserv enforces on every job.
// -dump-bytecode prints the vm backend's bytecode listing (with
// per-instruction step weights) and exits without running the program.
//
// Exit codes: 0 on success, 1 when the program fails to parse, dies at
// runtime, or exceeds a budget; 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/vm"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main with an exit code, so every path's code is auditable (and
// testable): nothing below calls os.Exit.
func run(args []string) int {
	fs := flag.NewFlagSet("lolrun", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	np := fs.Int("np", 1, "number of processing elements")
	machineName := fs.String("machine", "smp", "cost model: "+strings.Join(machine.Names(), ", "))
	backendName := fs.String("backend", "compile", "execution backend: "+strings.Join(backend.Names(), ", "))
	seed := fs.Int64("seed", 1, "base RNG seed (PE i uses seed+i)")
	group := fs.Bool("group", false, "buffer output per PE and emit it grouped in rank order")
	stats := fs.Bool("stats", false, "print runtime statistics after the run")
	traceFlag := fs.Bool("trace", false, "record runtime events and draw the data movement per barrier phase")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the run (0 = unlimited)")
	maxSteps := fs.Int64("max-steps", 0, "per-PE step budget (0 = unlimited)")
	dumpBytecode := fs.Bool("dump-bytecode", false, "print the vm backend's bytecode listing, with step weights, and exit without running")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lolrun [flags] code.lol\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	model, err := machine.ByName(*machineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	eng, err := backend.ByName(*backendName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lolrun: %v\n", err)
		return 2
	}
	if *maxSteps < 0 {
		fmt.Fprintln(os.Stderr, "lolrun: -max-steps must be non-negative")
		return 2
	}
	if *timeout < 0 {
		fmt.Fprintln(os.Stderr, "lolrun: -timeout must be non-negative")
		return 2
	}

	prog, err := core.ParseFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if *dumpBytecode {
		vp, err := prog.Bytecode()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Print(vm.Disassemble(vp))
		return 0
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var rec trace.Recorder
	cfg := interp.Config{
		NP:          *np,
		Model:       model,
		Seed:        *seed,
		Stdout:      os.Stdout,
		Stderr:      os.Stderr,
		Stdin:       os.Stdin,
		GroupOutput: *group,
		Context:     ctx,
		StepBudget:  *maxSteps,
	}
	if *traceFlag {
		cfg.Tracer = rec.Record
	}
	res, err := eng.Run(prog.Info, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *traceFlag {
		symbols := make([]string, len(prog.Info.Shared))
		for i, s := range prog.Info.Shared {
			symbols[i] = s.Name
		}
		fmt.Fprintf(os.Stderr, "--- data movement (per barrier phase) ---\n")
		rec.Render(os.Stderr, *np, symbols)
		rec.Summary(os.Stderr, *np)
	}
	if *stats {
		s := res.Stats
		fmt.Fprintf(os.Stderr, "--- lolrun stats (np=%d, machine=%s, backend=%s) ---\n",
			*np, model.Name(), eng.Name())
		fmt.Fprintf(os.Stderr, "remote puts: %d (%d bytes)\n", s.RemotePuts, s.PutBytes)
		fmt.Fprintf(os.Stderr, "remote gets: %d (%d bytes)\n", s.RemoteGets, s.GetBytes)
		fmt.Fprintf(os.Stderr, "barriers:    %d\n", s.Barriers)
		fmt.Fprintf(os.Stderr, "lock ops:    %d acquired, %d contended\n", s.LockAcquires, s.LockContended)
		var maxNanos float64
		for _, ns := range res.SimNanos {
			if ns > maxNanos {
				maxNanos = ns
			}
		}
		fmt.Fprintf(os.Stderr, "sim time:    %.3f us (slowest PE, %s model)\n", maxNanos/1000, model.Name())
	}
	return 0
}
