// Package backend defines the common execution-backend abstraction shared
// by the three engines that can run a checked parallel-LOLCODE program:
//
//   - internal/interp: the tree-walking interpreter (baseline);
//   - internal/vm: the slot-addressed bytecode VM (middle point);
//   - internal/compile: the closure compiler (production path).
//
// All three implement Backend and register themselves here, so launchers
// (cmd/lolrun, cmd/lolbench) and the conformance harness can select an
// engine by name and run the same backend×fixture matrix over every engine.
// The package also owns the execution plumbing every engine shares: the run
// Config, the Result, the per-PE output/stdin multiplexers, and the SPMD
// driver that maps one engine body over the shmem world.
package backend

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/sema"
	"repro/internal/shmem"
)

// Backend is one execution engine. Run executes a semantically checked
// program SPMD under cfg and reports run statistics. Engines are stateless;
// callers that want to amortize per-program preparation (bytecode or
// closure compilation) should use the engine package's Program type
// directly (core.Program does, caching one prepared form per engine).
type Backend interface {
	// Name is the stable identifier used by -backend flags and reports.
	Name() string
	// Run executes the program across cfg.NP processing elements.
	Run(info *sema.Info, cfg Config) (*Result, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Backend{}
)

// Register makes an engine selectable by name. Engines call it from init;
// importing repro/internal/core links in all three. Re-registering a name
// panics: it is a wiring bug, not a runtime condition.
func Register(b Backend) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name()]; dup {
		panic(fmt.Sprintf("backend: %q registered twice", b.Name()))
	}
	registry[b.Name()] = b
}

// ByName returns the engine registered under name.
func ByName(name string) (Backend, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (want one of %v)", name, Names())
	}
	return b, nil
}

// Names lists the registered engine names in sorted order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns the registered engines sorted by name.
func All() []Backend {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Backend, 0, len(registry))
	for _, b := range registry {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// NewWorld builds the shmem world implied by the program's symmetric
// symbols: one heap slot per WE HAS A declaration, one lock per
// AN IM SHARIN IT, exactly the per-PE layout of the paper's Figure 1.
func NewWorld(info *sema.Info, cfg Config) (*shmem.World, error) {
	syms := make([]shmem.SymbolSpec, len(info.Shared))
	for i, s := range info.Shared {
		syms[i] = shmem.SymbolSpec{Name: s.Name, IsArray: s.IsArray, Elem: s.Type}
	}
	return shmem.NewWorld(cfg.NP, syms, len(info.Locks), shmem.Options{
		Model:  cfg.Model,
		Seed:   cfg.Seed,
		Tracer: cfg.Tracer,
	})
}

// PEIO bundles the per-PE I/O endpoints an engine body uses.
type PEIO struct {
	Out   *PEWriter
	Err   *PEWriter
	Stdin *SharedReader
}

// RunSPMD drives one engine body per PE over an existing world, wiring the
// grouped-output and shared-stdin plumbing identically for every engine,
// and collects the Result. body runs concurrently on every PE.
//
// When cfg.Context is set, a watcher fails the world the moment the
// context is cancelled, so PEs blocked in HUGZ or locks are released
// promptly even if no PE is currently running engine
// steps; the engines' own meters catch cancellation on compute-bound
// paths. The returned error then satisfies errors.Is against the
// context's error.
func RunSPMD(cfg Config, world *shmem.World, body func(pe *shmem.PE, io PEIO) error) (*Result, error) {
	run := startSPMD(cfg, world)
	defer run.stopWatcher()
	err := world.Run(func(pe *shmem.PE) error {
		if err := body(pe, run.ioFor(pe.ID())); err != nil {
			return err
		}
		run.res.SimNanos[pe.ID()] = pe.SimNanos()
		return nil
	})
	return run.finish(cfg, world, err)
}

// RunSPMDScheduled is RunSPMD for the worker-scheduler mode: instead of
// a run-to-completion body, makeStep builds one resumable step function
// per PE (see shmem.World.RunScheduled for the suspend/resume contract).
// Output plumbing, context teardown, and Result assembly are shared with
// RunSPMD, so the two modes can only diverge inside the engine's own
// execution order — which the conformance differentials pin down.
func RunSPMDScheduled(cfg Config, world *shmem.World, makeStep func(pe *shmem.PE, io PEIO) func() error) (*Result, error) {
	run := startSPMD(cfg, world)
	defer run.stopWatcher()
	err := world.RunScheduled(cfg.SchedWorkers, func(pe *shmem.PE) func() error {
		step := makeStep(pe, run.ioFor(pe.ID()))
		return func() error {
			err := step()
			if err == nil {
				run.res.SimNanos[pe.ID()] = pe.SimNanos()
			}
			return err
		}
	})
	return run.finish(cfg, world, err)
}

// spmdRun is the plumbing shared by both execution modes: the grouped
// output multiplexers, the shared stdin, the context watcher that fails
// the world on cancellation, and the Result under assembly.
type spmdRun struct {
	out, errw *Output
	stdin     *SharedReader
	res       *Result
	start     time.Time
	stop      chan struct{}
}

func startSPMD(cfg Config, world *shmem.World) *spmdRun {
	r := &spmdRun{
		out:   NewOutput(cfg.Stdout, cfg.GroupOutput, cfg.NP, cfg.MaxOutput),
		errw:  NewOutput(cfg.Stderr, cfg.GroupOutput, cfg.NP, cfg.MaxOutput),
		stdin: NewSharedReader(cfg.Stdin),
		res:   &Result{SimNanos: make([]float64, cfg.NP)},
	}
	if ctx := cfg.Context; ctx != nil {
		// The goroutine captures the channel locally: it must not read the
		// r.stop field, which stopWatcher overwrites from the caller.
		stop := make(chan struct{})
		r.stop = stop
		go func() {
			select {
			case <-ctx.Done():
				world.Fail(ctx.Err())
			case <-stop:
			}
		}()
	}
	r.start = time.Now()
	return r
}

func (r *spmdRun) ioFor(pe int) PEIO {
	return PEIO{Out: r.out.ForPE(pe), Err: r.errw.ForPE(pe), Stdin: r.stdin}
}

func (r *spmdRun) stopWatcher() {
	if r.stop != nil {
		close(r.stop)
		r.stop = nil
	}
}

func (r *spmdRun) finish(cfg Config, world *shmem.World, err error) (*Result, error) {
	execWall := time.Since(r.start)
	r.out.Flush()
	r.errw.Flush()
	truncated := r.out.Truncated() || r.errw.Truncated()
	if err != nil {
		// Blocked PEs report the generic world failure; when the teardown
		// was actually caused by the context (the watcher's Fail), surface
		// the cancel cause so callers can classify with errors.Is. A
		// genuine PE error that merely races the deadline keeps its own
		// identity: the world's recorded cause is the PE error, not the
		// context's.
		if ctx := cfg.Context; ctx != nil {
			if cerr := ctx.Err(); cerr != nil && !errors.Is(err, cerr) && errors.Is(world.Err(), cerr) {
				err = fmt.Errorf("%w: %w", cerr, err)
			}
		}
		// The Result still carries output metadata (the launcher shows the
		// partial output it captured) and the post-teardown runtime stats
		// (every PE has joined by now, so the snapshot is quiescent — the
		// kill tests assert the scheduler gauges drained to zero); callers
		// must treat a run with a non-nil error as failed regardless.
		return &Result{Stats: world.Stats(), OutputTruncated: truncated, ExecWall: execWall}, err
	}
	r.res.Stats = world.Stats()
	r.res.OutputTruncated = truncated
	r.res.ExecWall = execWall
	return r.res, nil
}
