package backend

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/shmem"
	"repro/internal/token"
)

// SchedMode selects how PEs are executed: a dedicated goroutine per PE
// (the classic mode, and the differential oracle) or continuations
// multiplexed onto a bounded worker pool by the shmem scheduler. Only
// engines with resumable execution state honor SchedWorkers — today the
// VM; interp and compile silently run goroutine-per-PE.
type SchedMode int

const (
	// SchedAuto picks workers on capable engines when NP is large enough
	// (>= SchedAutoNP) that goroutine-per-PE economics start to hurt.
	SchedAuto SchedMode = iota
	// SchedGoroutines forces one goroutine per PE.
	SchedGoroutines
	// SchedWorkers forces the bounded worker pool on capable engines.
	SchedWorkers
)

// SchedAutoNP is the world size at which SchedAuto switches a capable
// engine to the worker pool.
const SchedAutoNP = 64

func (m SchedMode) String() string {
	switch m {
	case SchedGoroutines:
		return "goroutines"
	case SchedWorkers:
		return "workers"
	}
	return "auto"
}

// ParseSchedMode parses a -sched flag or request field value.
func ParseSchedMode(s string) (SchedMode, error) {
	switch s {
	case "", "auto":
		return SchedAuto, nil
	case "goroutines":
		return SchedGoroutines, nil
	case "workers":
		return SchedWorkers, nil
	}
	return SchedAuto, fmt.Errorf("backend: unknown sched mode %q (want auto, goroutines, or workers)", s)
}

// Config controls one SPMD execution. It is shared verbatim by every
// engine, so a run is reproducible across backends: same NP, same seeds,
// same cost model, same output discipline.
type Config struct {
	// NP is the number of processing elements (the coprsh/aprun -np flag).
	NP int
	// Model prices one-sided operations; nil runs at zero cost.
	Model shmem.CostModel
	// Seed is the base seed for WHATEVR/WHATEVAR; PE i uses Seed+i.
	Seed int64
	// Stdout and Stderr receive VISIBLE and INVISIBLE output. nil discards.
	Stdout io.Writer
	Stderr io.Writer
	// Stdin feeds GIMMEH; nil reads empty input.
	Stdin io.Reader
	// GroupOutput buffers each PE's output and emits it grouped in PE order
	// after the run, making multi-PE output deterministic for golden tests.
	GroupOutput bool
	// Tracer, when non-nil, receives every runtime event (remote accesses,
	// barriers, lock traffic); see internal/trace for a recorder and the
	// Figure 2 data-movement renderer.
	Tracer shmem.Tracer
	// Context, when non-nil, bounds the run: when it is cancelled (deadline,
	// client disconnect) every PE is torn down cooperatively, including PEs
	// blocked in HUGZ or locks. The run's error then satisfies errors.Is
	// against the context's error.
	Context context.Context
	// StepBudget caps the number of engine steps each PE may execute;
	// 0 means unlimited. What one step is depends on the engine (see the
	// Meter docs); exceeding the budget aborts the run with ErrStepBudget.
	StepBudget int64
	// MaxOutput caps the total bytes of VISIBLE (and, separately,
	// INVISIBLE) output retained or forwarded; 0 means unlimited. Overflow
	// is dropped, not fatal, and reported via Result.OutputTruncated.
	MaxOutput int
	// Sched selects goroutine-per-PE or worker-pool execution; engines
	// without resumable state ignore it. Output is byte-identical across
	// modes (the conformance differentials enforce this), so SchedAuto is
	// safe as a default.
	Sched SchedMode
	// SchedWorkers overrides the worker-pool size in workers mode;
	// 0 selects shmem.DefaultSchedWorkers (min(2*GOMAXPROCS, NP)).
	SchedWorkers int
}

// UseWorkers reports whether this config selects the worker scheduler
// for a capable engine at world size np.
func (c *Config) UseWorkers(np int) bool {
	switch c.Sched {
	case SchedWorkers:
		return true
	case SchedGoroutines:
		return false
	}
	return np >= SchedAutoNP
}

// Result reports what a run did.
type Result struct {
	Stats    shmem.StatsSnapshot
	SimNanos []float64 // per-PE simulated time under the cost model
	// OutputTruncated reports that Config.MaxOutput dropped output bytes.
	OutputTruncated bool
	// ExecWall is the wall-clock time spent inside the SPMD run proper —
	// PE execution between world start and teardown, excluding program
	// preparation and output assembly — so callers can separate engine
	// time from the plumbing around it.
	ExecWall time.Duration
}

// RuntimeError is an execution error with its source position. All engines
// produce it, so error handling is backend-independent.
type RuntimeError struct {
	Pos token.Pos
	Err error
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("%s: %v", e.Pos, e.Err) }

func (e *RuntimeError) Unwrap() error { return e.Err }
