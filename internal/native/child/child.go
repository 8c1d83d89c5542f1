// Package child is the runtime harness linked into every gogen-emitted
// binary. The generated main is a thin shim — it declares the program's
// symmetric heap layout and SPMD body and calls Main — so the flag
// surface, the output plumbing, and the lolserv native-tier protocol
// live here, in reviewable library code, instead of being re-emitted
// into every generated program.
//
// Two modes exist:
//
//   - Live (default): the paper's §VI.E toolchain behaviour. VISIBLE
//     streams to stdout and INVISIBLE to stderr as PEs produce them,
//     GIMMEH lines go to whichever PE asks first, and the process exits
//     0/1/2 for ok / program error / usage error. `go run ./gen -np 16`
//     is the repository's `coprsh -np 16 ./x`.
//
//   - Serve (-serve): the subprocess side of lolserv's native execution
//     tier. The run uses the exact grouped-output, output-cap, and
//     shared-stdin plumbing of the in-process engines (backend.RunSPMD),
//     and the process reports one JSON Result object on stdout — ok or
//     not, both output streams, truncation, the achieved sandbox level,
//     and the PGAS stats — with exit code 0 whenever the protocol itself
//     succeeded. A program failure is data, not an exit code, exactly
//     like the server's 200-with-outcome contract. Exit code 2 still
//     means the harness could not run at all (bad flags, world
//     construction failure); the parent treats that as a tier failure
//     and falls back to an in-process engine. Exit code ExitBudget means
//     the kernel's RLIMIT_CPU soft limit fired — the OS-enforced analog
//     of the in-process step meter — and the parent classifies it as a
//     budget kill, never as a tier failure.
//
// Serve mode self-jails before touching program state: it applies
// internal/native/sandbox (RLIMIT_CPU from the parent's -cpu-budget,
// RLIMIT_AS from -mem-limit, RLIMIT_NOFILE, RLIMIT_CORE=0, plus a
// deny-all Landlock filesystem domain where the kernel supports one)
// and reports the level actually reached in the Result. The jail is
// unprivileged and one-way; -no-sandbox exists for benchmarking the
// difference, not for production.
//
// Because both modes drive backend.RunSPMD, a deterministic program's
// grouped output is byte-identical across all four execution tiers —
// the property the server's result cache and the native differential
// tests are built on.
package child

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/machine"
	"repro/internal/native/sandbox"
	"repro/internal/shmem"
)

// ExitBudget is the serve-mode exit code for an RLIMIT_CPU soft-limit
// death: the child caught SIGXCPU and stopped. The parent maps it onto
// the step-budget outcome, so a kernel CPU kill classifies exactly like
// an in-process step-meter kill.
const ExitBudget = 3

// Spec is what a generated binary knows about its program: the symmetric
// heap layout (paper Figure 1), the implicit lock count, and the SPMD
// body itself.
type Spec struct {
	Symbols []shmem.SymbolSpec
	Locks   int
	Body    func(pe *shmem.PE, peio backend.PEIO) error
}

// Result is the one JSON object a -serve run writes to stdout: the
// subprocess-protocol image of backend.Result plus the fields the parent
// needs to rebuild a server response without re-deriving anything.
type Result struct {
	// OK reports that the program ran to completion. A false OK carries
	// the failure in Error; the harness still exits 0 — the protocol
	// worked, the program failed.
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Output and Errout carry VISIBLE and INVISIBLE text, grouped per PE
	// in rank order (partial on failure, same as the in-process tiers).
	Output string `json:"output"`
	Errout string `json:"errout,omitempty"`
	// Truncated reports that the -max-output cap dropped output bytes.
	Truncated bool `json:"truncated,omitempty"`
	// Sandbox is the containment level the self-jailing prologue actually
	// reached (sandbox.Level: "none", "rlimit", or "rlimit+landlock").
	Sandbox string `json:"sandbox,omitempty"`
	// Stats and SimNanos mirror RunResponse: world counters and the
	// slowest PE's simulated time. Stats is nil on failed runs.
	Stats    *shmem.StatsSnapshot `json:"stats,omitempty"`
	SimNanos float64              `json:"sim_nanos,omitempty"`
}

// Main parses the generated binary's flags and runs the program. It does
// not return.
func Main(spec Spec) {
	np := flag.Int("np", 1, "number of processing elements")
	machineName := flag.String("machine", "smp", "cost model: "+strings.Join(machine.Names(), ", "))
	seed := flag.Int64("seed", 1, "base RNG seed (PE i uses seed+i)")
	serve := flag.Bool("serve", false, "lolserv native-tier mode: grouped output, JSON result on stdout")
	maxOutput := flag.Int("max-output", 0, "serve mode: cap each output stream at this many bytes (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "serve mode: wall-clock budget; the run is torn down cooperatively (0 = none)")
	cpuBudget := flag.Int64("cpu-budget", 0, "serve mode: RLIMIT_CPU seconds, the step budget's kernel analog (0 = none)")
	memLimit := flag.Int64("mem-limit", 0, "serve mode: RLIMIT_AS bytes (0 = none)")
	noSandbox := flag.Bool("no-sandbox", false, "serve mode: skip the self-jailing prologue (benchmarking only)")
	flag.Parse()

	model, err := machine.ByName(*machineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	world, err := shmem.NewWorld(*np, spec.Symbols, spec.Locks, shmem.Options{
		Model: model, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := backend.Config{
		NP:    *np,
		Model: model,
		Seed:  *seed,
		Stdin: os.Stdin,
	}
	if *serve {
		os.Exit(serveMode(cfg, world, spec, serveOpts{
			maxOutput: *maxOutput,
			timeout:   *timeout,
			cpuBudget: *cpuBudget,
			memLimit:  *memLimit,
			noSandbox: *noSandbox,
		}))
	}

	// Live mode: stream through. RunSPMD's ungrouped PEWriters serialize
	// concurrent PEs onto the real streams, the same discipline the
	// in-process engines use.
	cfg.Stdout, cfg.Stderr = os.Stdout, os.Stderr
	if _, err := backend.RunSPMD(cfg, world, spec.Body); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

type serveOpts struct {
	maxOutput int
	timeout   time.Duration
	cpuBudget int64
	memLimit  int64
	noSandbox bool
}

// childNoFile caps new file descriptors in the jailed child. Serve mode
// opens nothing after the prologue — stdio and the runtime's own fds
// are already open and unaffected — so the cap is pure attack-surface
// reduction, sized with slack for runtime internals.
const childNoFile = 64

func serveMode(cfg backend.Config, world *shmem.World, spec Spec, o serveOpts) int {
	// Self-jail before any untrusted program state is touched. SIGXCPU
	// must be subscribed first: the Go runtime swallows it otherwise,
	// and the whole point is a classifiable budget death instead of the
	// hard limit's anonymous SIGKILL.
	level := sandbox.LevelNone
	if !o.noSandbox {
		sandbox.OnCPUBudget(func() { os.Exit(ExitBudget) })
		var err error
		level, err = sandbox.Apply(sandbox.Limits{
			CPUSecs:  o.cpuBudget,
			MemBytes: o.memLimit,
			NoFile:   childNoFile,
		})
		if err != nil {
			// The rlimit layer failed, so the kernel is not holding the
			// budgets the parent thinks it is. Refuse to run: a tier
			// failure (the parent falls back in-process) is strictly
			// safer than executing untrusted code unjailed.
			fmt.Fprintf(os.Stderr, "sandbox: %v\n", err)
			return 2
		}
	}

	var out, errw strings.Builder
	cfg.Stdout, cfg.Stderr = &out, &errw
	cfg.GroupOutput = true
	cfg.MaxOutput = o.maxOutput
	if o.timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
		defer cancel()
		cfg.Context = ctx
	}

	res, runErr := backend.RunSPMD(cfg, world, spec.Body)
	r := Result{
		OK:      runErr == nil,
		Output:  out.String(),
		Errout:  errw.String(),
		Sandbox: string(level),
	}
	if res != nil {
		r.Truncated = res.OutputTruncated
	}
	if runErr != nil {
		r.Error = runErr.Error()
	} else if res != nil {
		stats := res.Stats
		r.Stats = &stats
		for _, ns := range res.SimNanos {
			if ns > r.SimNanos {
				r.SimNanos = ns
			}
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		// Stdout is gone; nothing useful left to report.
		return 2
	}
	return 0
}
