// Command perfbench is the repository's benchmark of record. It drives the
// public packages of the parallel-LOLCODE stack through three workloads —
// kernels (engine dispatch and arithmetic), sync (barrier, lock and
// scheduler wait paths at NP=64) and serve (lolserv over loopback HTTP) —
// checks every output against a reference, and prints every metric by
// name with its unit. The last line of standard output is one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separate traced run (--trace 1).
//
//	bash benchmark/run.sh --workload kernels --seed 1 --seconds 30 --trace 0
//
// See README.md in this directory for the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/shmem"
)

// endToEnd and perLayer are the metric names BENCHMARK.json declares, in
// report order; the JSON line carries exactly one of the two sets.
var endToEnd = []string{
	"run_ms.interp", "run_ms.vm", "run_ms.compile",
	"run_tail_ms.interp", "run_tail_ms.vm", "run_tail_ms.compile",
	"latency_p50_ms", "latency_tail_ms", "req_per_s",
	"setup_s", "peak_rss_mb",
}

var perLayer = []string{
	"lexer.tokens_per_s", "parser.parse_us", "sema.check_us",
	"vm.compile_us", "vm.instrs", "compile.compile_us",
	"gogen.emit_ms", "gogen.bytes",
	"exec_ms.interp", "exec_ms.vm", "exec_ms.compile",
	"backend.spmd_overhead_us",
	"shmem.barriers", "shmem.remote_gets", "shmem.remote_puts",
	"shmem.get_bytes", "shmem.put_bytes", "shmem.lock_acquires",
	"shmem.lock_contended_ratio", "shmem.barrier_interval_us",
	"sched.parks", "sched.unparks", "sched.yields", "sched.max_running",
	"trace.overhead_frac", "trace.unattributed_frac",
}

var workloads = []string{"kernels", "sync", "serve"}

// setups is how many times a run builds its set-up; setup_s is the median.
const setups = 3

type metric struct {
	value float64
	unit  string
}

// metricSet keeps every figure a run produced, in insertion order.
type metricSet struct {
	names []string
	m     map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) set(name string, v float64, unit string) {
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{v, unit}
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string
	spans    string
	sizes    sizes
	setups   int
}

// sizes groups every workload's sizes so tests can shrink them.
type sizes struct {
	kernels kernelSizes
	sync    stormSizes
	serve   serveSizes
}

var fullSizes = sizes{kernels: kernelsFull, sync: syncFull, serve: serveFull}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           *metricSet
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{sizes: fullSizes, setups: setups}
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	secs := fs.Int("seconds", 30, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.spans, "spans", "", "with --trace 1, write the recorded spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seconds = time.Duration(*secs) * time.Second
	cfg.trace = *traceFlag == 1
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload {%s}, --seconds >= 1 and --trace 0|1\n", strings.Join(workloads, ","))
		return 2
	}

	fmt.Fprintln(stdout, stamp(cfg))
	out, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	report(stdout, cfg, out)
	if out.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed their check; first: %v\n", out.failed, out.attempted, out.firstErr)
		return 1
	}
	return 0
}

func runWorkload(cfg config) (*outcome, error) {
	var out *outcome
	var err error
	if cfg.workload == "serve" {
		out, err = runServe(cfg)
	} else {
		out, err = runRounds(cfg)
	}
	if err != nil {
		return nil, err
	}
	out.metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	return out, nil
}

// report prints every metric by name with its unit, then the JSON line.
func report(w io.Writer, cfg config, out *outcome) {
	m := out.metrics
	for _, name := range m.names {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", name, m.m[name].value, m.m[name].unit)
	}
	fmt.Fprintf(w, "%-40s %16d count\n", "attempted", out.attempted)
	fmt.Fprintf(w, "%-40s %16.6g ratio\n", "failed_frac", ratio(float64(out.failed), float64(out.attempted)))
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	js := map[string]jm{}
	for _, n := range names {
		v := m.m[n]
		js[n] = jm{v.value, v.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, js})
	fmt.Fprintln(w, string(line))
}

// stamp is the environment line every result carries.
func stamp(cfg config) string {
	commit, dirty := gitState(cfg.root)
	return fmt.Sprintf("env go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s dirty=%s workload=%s seed=%d seconds=%d trace=%v",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit, dirty,
		cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace)
}

// gitState reports the root's commit and whether its tree is dirty, or
// "unknown" for both outside a git checkout. Only the root's own
// repository counts: git would otherwise report an enclosing one.
func gitState(root string) (commit, dirty string) {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown", "unknown"
	}
	b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", "unknown"
	}
	st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output()
	if err != nil {
		return strings.TrimSpace(string(b)), "unknown"
	}
	return strings.TrimSpace(string(b)), fmt.Sprint(len(strings.TrimSpace(string(st))) > 0)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedSetups builds the set-up n times, keeps the last, closes the rest,
// and reports the median duration in seconds.
func timedSetups[T interface{ close() }](n int, build func() (T, error)) (T, float64, error) {
	var keep T
	var durs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		s, err := build()
		if err != nil {
			if i > 0 {
				keep.close()
			}
			return keep, 0, err
		}
		durs = append(durs, time.Since(start).Seconds())
		if i > 0 {
			keep.close()
		}
		keep = s
	}
	return keep, median(durs), nil
}

// runRounds runs the kernels or sync workload.
func runRounds(cfg config) (*outcome, error) {
	gen := func() []*job { return kernelsJobs(cfg.seed, cfg.sizes.kernels) }
	if cfg.workload == "sync" {
		gen = func() []*job { return syncJobs(cfg.seed, cfg.sizes.sync) }
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	s, setupS, err := timedSetups(cfg.setups, func() (*roundsSetup, error) {
		s, err := setupRounds(cfg.root, gen(), rec)
		if err != nil {
			return nil, err
		}
		// Warm-up: one round per engine.
		if w := measureRounds(s, 0, 1, nil); w.failed > 0 {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", w.firstErr)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	defer s.close()

	m := newMetricSet()
	if !cfg.trace {
		r := measureRounds(s, cfg.seconds, 1, nil)
		roundsEndToEnd(m, r)
		m.set("setup_s", setupS, "s")
		return &outcome{r.attempted, r.failed, r.firstErr, m}, nil
	}
	plain := measureRounds(s, cfg.seconds/2, 1, nil)
	r := measureRounds(s, cfg.seconds/2, 1, rec)
	roundsEndToEnd(m, r)
	s.front.metrics(m)
	roundsPerLayer(m, s, r)
	var ratios []float64
	for _, e := range roundEngines {
		ratios = append(ratios, ratio(median(r.roundMS[e]), median(plain.roundMS[e]))-1)
	}
	m.set("trace.overhead_frac", median(ratios), "ratio")
	if err := traceMetrics(m, rec, r.closure, roundsMaxGap, cfg); err != nil {
		return nil, err
	}
	firstErr := plain.firstErr
	if firstErr == nil {
		firstErr = r.firstErr
	}
	return &outcome{plain.attempted + r.attempted, plain.failed + r.failed, firstErr, m}, nil
}

func roundsEndToEnd(m *metricSet, r *roundsResult) {
	for _, e := range roundEngines {
		v, pct := tail(r.roundMS[e])
		if e == "native" {
			m.set("latency_p50_ms", median(r.roundMS[e]), "ms")
			m.set("latency_tail_ms", v, "ms")
		} else {
			m.set("run_ms."+e, median(r.roundMS[e]), "ms")
			m.set("run_tail_ms."+e, v, "ms")
		}
		m.set("run_tail_pct."+e, pct, "%")
		m.set("run_n."+e, float64(len(r.roundMS[e])), "count")
	}
	m.set("req_per_s", ratio(float64(r.attempted), r.elapsed.Seconds()), "1/s")
}

func roundsPerLayer(m *metricSet, s *roundsSetup, r *roundsResult) {
	for _, e := range roundEngines[:3] {
		m.set("exec_ms."+e, median(r.execMS[e]), "ms")
	}
	m.set("backend.spmd_overhead_us", median(r.overheadUS), "us")
	rounds := 0
	for _, xs := range r.roundMS {
		rounds += len(xs)
	}
	shmemCounts(m, r.stats, float64(rounds))
	m.set("sched.max_running", float64(r.maxRunning), "count")
	shmemTimings(m, r.events)
	m.set("native.build_s", median(s.buildS), "s")
	m.set("native.spawn_floor_ms", median(r.floorMS), "ms")
	keys := make([]string, 0, len(r.progExecMS))
	for k := range r.progExecMS {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m.set("exec_ms."+k, median(r.progExecMS[k]), "ms")
	}
}

// shmemCounts reports the runtime counters as means per op.
func shmemCounts(m *metricSet, stats []shmem.StatsSnapshot, ops float64) {
	var t shmem.StatsSnapshot
	for _, s := range stats {
		t.RemoteGets += s.RemoteGets
		t.RemotePuts += s.RemotePuts
		t.GetBytes += s.GetBytes
		t.PutBytes += s.PutBytes
		t.Barriers += s.Barriers
		t.LockAcquires += s.LockAcquires
		t.LockContended += s.LockContended
		t.Sched.Parks += s.Sched.Parks
		t.Sched.Unparks += s.Sched.Unparks
		t.Sched.Yields += s.Sched.Yields
	}
	per := func(v int64) float64 { return ratio(float64(v), ops) }
	m.set("shmem.barriers", per(t.Barriers), "count")
	m.set("shmem.remote_gets", per(t.RemoteGets), "count")
	m.set("shmem.remote_puts", per(t.RemotePuts), "count")
	m.set("shmem.get_bytes", per(t.GetBytes), "B")
	m.set("shmem.put_bytes", per(t.PutBytes), "B")
	m.set("shmem.lock_acquires", per(t.LockAcquires), "count")
	m.set("shmem.lock_contended_ratio", ratio(float64(t.LockContended), float64(t.LockAcquires)), "ratio")
	m.set("sched.parks", per(t.Sched.Parks), "count")
	m.set("sched.unparks", per(t.Sched.Unparks), "count")
	m.set("sched.yields", per(t.Sched.Yields), "count")
}

func shmemTimings(m *metricSet, t *shmemTimes) {
	m.set("shmem.barrier_interval_us", median(t.barrierIntervalUS), "us")
	m.set("shmem.lock_hold_us", median(t.lockHoldUS), "us")
	m.set("shmem.lock_handoff_us", median(t.lockHandoffUS), "us")
}

// The closure tolerances: the largest median share of an op that its
// separately measured parts may leave uncovered before the traced run
// fails.
const (
	// A round is its runs plus an output compare and a few appends each;
	// the runs leave well under 0.1% of it uncovered.
	roundsMaxGap = 0.02
	// The server's stages leave out request validation, key hashing and
	// the audit, which are a larger part of a small total: about 6% of the
	// median request's total_ms.
	serveMaxGap = 0.25
)

// traceMetrics reports each layer's self time, runs the closure check,
// and writes the spans out when asked to.
func traceMetrics(m *metricSet, rec *recorder, clo *closure, maxGap float64, cfg config) error {
	frac, err := clo.check(maxGap)
	if err != nil {
		return err
	}
	selfMS := rec.selfTimes()
	names := make([]string, 0, len(selfMS))
	for n := range selfMS {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m.set("self_ms."+n, selfMS[n], "ms")
	}
	m.set("trace.unattributed_frac", frac, "ratio")
	if cfg.spans != "" {
		if err := rec.write(cfg.spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}
