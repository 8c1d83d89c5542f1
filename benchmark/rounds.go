package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/native"
	"repro/internal/native/sandbox"
	"repro/internal/shmem"
)

// The kernels and sync workloads are both closed loops of rounds: a round
// runs every program of the workload once on one engine, and the engines
// take turns, round by round.
var roundEngines = []string{"interp", "vm", "compile", "native"}

// job is one program of a rounds workload, prepared in set-up.
type job struct {
	name  string
	src   string
	np    int
	seed  int64
	prog  *core.Program
	bin   string // native binary built by native.Cache.Build
	want  string // reference output: the interp engine's, taken in set-up
	check func(out string) error
}

// serverStepBudget and nativeStepsPerSecond mirror lolserv's defaults, so
// native children get the RLIMIT_CPU allowance the native tier gives them.
const (
	serverStepBudget     = 50_000_000
	nativeStepsPerSecond = 20_000_000
)

// nativeSpec is the RunSpec the lolserv native tier builds for a job with
// default options: 1 MiB output cap, 4 GiB address-space cap, the sandbox
// on, and the step budget carried as RLIMIT_CPU where the sandbox works.
func nativeSpec(np int, seed int64) native.RunSpec {
	spec := native.RunSpec{NP: np, Seed: seed, MaxOutput: 1 << 20, MemBytes: 4 << 30}
	if sandbox.Supported() {
		spec.CPUBudgetSecs = int64(float64(np)*serverStepBudget/nativeStepsPerSecond) + 1
	}
	return spec
}

// roundsSetup is a rounds workload ready to time.
type roundsSetup struct {
	jobs     []*job
	cacheDir string // native binaries; removed by close
	floorBin string // HAI 1.2 / KTHXBYE, for the spawn floor
	front    *frontStats
	buildS   []float64
}

func (s *roundsSetup) close() { os.RemoveAll(s.cacheDir) }

// setupRounds prepares jobs: frontend, both prepared forms, a native
// binary built into a fresh cache directory (so every set-up pays
// `go build`), and the interp reference output, which must pass the
// job's own check.
func setupRounds(root string, jobs []*job, rec *recorder) (*roundsSetup, error) {
	// go build runs in the module root, so the output path must not be
	// relative to the working directory.
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "native-")
	if err != nil {
		return nil, fmt.Errorf("native cache dir: %w", err)
	}
	s := &roundsSetup{jobs: jobs, cacheDir: dir, front: &frontStats{}}
	fail := func(err error) (*roundsSetup, error) {
		s.close()
		return nil, err
	}
	nc, err := native.NewCache(dir, root)
	if err != nil {
		return fail(err)
	}
	floor := &job{name: "floor", src: "HAI 1.2\nKTHXBYE\n", np: 1}
	for _, j := range append(jobs, floor) {
		if j.prog, err = parseTimed(j.name, j.src, s.front, rec, -1, -1); err != nil {
			return fail(fmt.Errorf("%s: %w", j.name, err))
		}
		if err := prepareTimed(j.prog, s.front, rec, -1, -1); err != nil {
			return fail(fmt.Errorf("%s: %w", j.name, err))
		}
		d := rec.timed("native.build", -1, -1, func() {
			j.bin, err = nc.Build(context.Background(), j.name, j.prog.Info)
		})
		if err != nil {
			return fail(fmt.Errorf("%s: %w", j.name, err))
		}
		s.buildS = append(s.buildS, d.Seconds())
	}
	s.floorBin = floor.bin
	for _, j := range jobs {
		out, _, err := runJob("interp", j, nil)
		if err != nil {
			return fail(fmt.Errorf("%s reference: %w", j.name, err))
		}
		if j.check != nil {
			if err := j.check(out); err != nil {
				return fail(fmt.Errorf("%s reference: %w", j.name, err))
			}
		}
		j.want = out
	}
	return s, nil
}

// runOut is what one run of one job reports back.
type runOut struct {
	wall, exec time.Duration
	stats      shmem.StatsSnapshot
}

// runJob runs j once on engine e; tracer, when set, receives the shmem
// events of an in-process run.
func runJob(e string, j *job, tracer shmem.Tracer) (string, runOut, error) {
	var r runOut
	start := time.Now()
	if e == "native" {
		res, err := native.RunBinary(context.Background(), j.bin, nativeSpec(j.np, j.seed))
		r.wall = time.Since(start)
		if err != nil {
			return "", r, err
		}
		if !res.OK {
			return res.Output, r, errors.New(res.Error)
		}
		if res.Stats != nil {
			r.stats = *res.Stats
		}
		return res.Output, r, nil
	}
	b, err := core.ParseBackend(e)
	if err != nil {
		return "", r, err
	}
	var out strings.Builder
	res, err := j.prog.Run(core.RunConfig{Backend: b, Config: backend.Config{
		NP: j.np, Seed: j.seed, Stdout: &out, GroupOutput: true, Tracer: tracer,
	}})
	r.wall = time.Since(start)
	if res != nil {
		r.exec = res.ExecWall
		r.stats = res.Stats
	}
	return out.String(), r, err
}

// roundsResult is everything the timed loop measured.
type roundsResult struct {
	attempted, failed int
	elapsed           time.Duration
	roundMS           map[string][]float64 // engine -> round wall times
	execMS            map[string][]float64 // engine -> Σ ExecWall per round
	progExecMS        map[string][]float64 // engine.program -> ExecWall
	overheadUS        []float64            // Program.Run wall − ExecWall
	stats             []shmem.StatsSnapshot
	maxRunning        int
	events            *shmemTimes
	closure           *closure // traced run only
	floorMS           []float64
	firstErr          error
}

// measureRounds runs engine rounds in turn until the deadline passes (and
// at least minCycles full cycles are done), checking every run's output
// against the reference.
func measureRounds(s *roundsSetup, seconds time.Duration, minCycles int, rec *recorder) *roundsResult {
	r := &roundsResult{
		roundMS:    map[string][]float64{},
		execMS:     map[string][]float64{},
		progExecMS: map[string][]float64{},
	}
	var log *eventLog
	if rec != nil {
		log = &eventLog{origin: time.Now()}
		r.events = &shmemTimes{}
		r.closure = &closure{}
	}
	start := time.Now()
	deadline := start.Add(seconds)
	op := 0
	for cycle := 0; cycle < minCycles || time.Now().Before(deadline); cycle++ {
		for _, e := range roundEngines {
			root := rec.open("round."+e, op, -1)
			t0 := time.Now()
			var exec, runs time.Duration
			var perRun [][]stampedEvent
			for _, j := range s.jobs {
				var tracer shmem.Tracer
				if log != nil && e != "native" {
					tracer = log.tracer()
				}
				rs := time.Now()
				out, ro, err := runJob(e, j, tracer)
				re := time.Now()
				runs += re.Sub(rs)
				run := rec.add("run."+e, op, root, rs, re)
				if ro.exec > 0 {
					rec.add("exec."+e, op, run, rs, rs.Add(ro.exec))
				}
				r.attempted++
				if err == nil && out != j.want {
					err = errors.New("output differs from the interp reference")
				}
				if err != nil {
					r.failed++
					if r.firstErr == nil {
						r.firstErr = fmt.Errorf("%s on %s: %w", j.name, e, err)
					}
				}
				exec += ro.exec
				if ro.exec > 0 {
					r.overheadUS = append(r.overheadUS, us(ro.wall-ro.exec))
					r.progExecMS[e+"."+j.name] = append(r.progExecMS[e+"."+j.name], ms(ro.exec))
				}
				r.stats = append(r.stats, ro.stats)
				r.maxRunning = max(r.maxRunning, ro.stats.Sched.MaxRunning)
				if log != nil {
					perRun = append(perRun, log.take())
					r.closure.contain(fmt.Sprintf("op %d: %s ExecWall inside its run", op, j.name), us(re.Sub(rs)), us(ro.exec))
				}
			}
			wall := time.Since(t0)
			r.roundMS[e] = append(r.roundMS[e], ms(wall))
			rec.close(root)
			if e != "native" {
				r.execMS[e] = append(r.execMS[e], ms(exec))
			}
			// The event timings are derived after the round's clock stops.
			if log != nil {
				r.closure.add(fmt.Sprintf("op %d: runs inside round.%s", op, e), us(wall), us(runs))
				for _, evs := range perRun {
					drain(evs, r.events)
				}
			}
			op++
		}
		if rec != nil {
			t := time.Now()
			if _, err := native.RunBinary(context.Background(), s.floorBin, nativeSpec(1, 0)); err == nil {
				r.floorMS = append(r.floorMS, ms(time.Since(t)))
			}
		}
	}
	r.elapsed = time.Since(start)
	return r
}

// shmemTimes holds the runtime timings derived from stamped shmem events.
type shmemTimes struct {
	barrierIntervalUS []float64 // gap between successive world-wide barrier releases
	lockHoldUS        []float64 // EvLock -> EvUnlock on the same PE and lock
	lockHandoffUS     []float64 // EvUnlock -> the next EvLock by another PE
}

// eventLog stamps shmem events as the runtime reports them. Stamps are
// taken under the lock, so the log is in time order.
type eventLog struct {
	origin time.Time
	mu     sync.Mutex
	evs    []stampedEvent
}

type stampedEvent struct {
	ev shmem.Event
	at time.Duration
}

func (l *eventLog) tracer() shmem.Tracer {
	return func(ev shmem.Event) {
		l.mu.Lock()
		l.evs = append(l.evs, stampedEvent{ev, time.Since(l.origin)})
		l.mu.Unlock()
	}
}

// take returns the events logged so far and empties the log.
func (l *eventLog) take() []stampedEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := l.evs
	l.evs = nil
	return evs
}

// drain turns one run's events into timings. A barrier episode is
// released when its first PE leaves it.
func drain(evs []stampedEvent, t *shmemTimes) {
	release := map[int]time.Duration{}
	maxEp := 0
	type held struct{ pe, lock int }
	holding := map[held]time.Duration{}
	type unlock struct {
		pe int
		at time.Duration
	}
	lastUnlock := map[int]unlock{}
	for _, s := range evs {
		ev := s.ev
		switch ev.Kind {
		case shmem.EvBarrier:
			if at, ok := release[ev.Episode]; !ok || s.at < at {
				release[ev.Episode] = s.at
			}
			maxEp = max(maxEp, ev.Episode)
		case shmem.EvLock:
			holding[held{ev.PE, ev.Slot}] = s.at
			if u, ok := lastUnlock[ev.Slot]; ok && u.pe != ev.PE {
				t.lockHandoffUS = append(t.lockHandoffUS, us(s.at-u.at))
			}
			delete(lastUnlock, ev.Slot)
		case shmem.EvUnlock:
			if at, ok := holding[held{ev.PE, ev.Slot}]; ok {
				t.lockHoldUS = append(t.lockHoldUS, us(s.at-at))
				delete(holding, held{ev.PE, ev.Slot})
			}
			lastUnlock[ev.Slot] = unlock{ev.PE, s.at}
		}
	}
	for ep := 2; ep <= maxEp; ep++ {
		a, okA := release[ep-1]
		b, okB := release[ep]
		if okA && okB {
			t.barrierIntervalUS = append(t.barrierIntervalUS, us(b-a))
		}
	}
}
