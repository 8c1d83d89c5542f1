package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/progen"
	"repro/internal/server"
	"repro/internal/shmem"
)

// serveSizes are the serve workload's sizes; tests shrink them.
type serveSizes struct {
	pool       int // requests generated per set-up; the clients cycle through them
	freshStmts int // top-level statements per fresh progen program
	darts      int // Monte Carlo darts per PE in the resubmitted variants
}

var serveFull = serveSizes{pool: 6_000, freshStmts: 40, darts: 2_000}

// The serve mix, per block of mixBlock requests in a seeded order:
// resubmissions of assignment variants drawn zipf, fresh unique programs,
// and expected failures. Fixed counts per block keep the class shares
// exact, so the latency percentiles do not drift with the seed.
const (
	mixBlock    = 20
	mixResubmit = 12
	mixFresh    = 7 // the remaining one request per block is a failure
	// zipfS is the skew of the resubmissions over the variants, in list
	// order. It is the exponent of the repository's hot-key classroom
	// scenario, experiments.ServeZipf; no measured classroom skew is
	// available to replace it.
	zipfS = 1.4
	// failSteps is the per-PE step budget the budget-kill requests ask for.
	failSteps = 20_000
)

var serveEngines = []string{"interp", "vm", "compile"}

// variant is one assignment listing students resubmit.
type variant struct {
	name string
	src  string
	np   int
}

// testdataVariants are the repository listings whose grouped output is
// the same on every run, at the PE counts they are submitted at.
var testdataVariants = []struct {
	file string
	np   int
}{
	{"testdata/fig2.lol", 4},
	{"testdata/primes.lol", 2},
	{"testdata/primes.lol", 4},
	{"testdata/ring.lol", 4},
	{"testdata/sort.lol", 4},
	{"testdata/stencil.lol", 2},
	{"testdata/stencil.lol", 4},
	{"testdata/locks.lol", 4},
	{"testdata/funcs.lol", 1},
	{"testdata/savina/counting.lol", 4},
	{"testdata/savina/barrierstorm.lol", 4},
}

// serveVariants lists the ~24 resubmitted assignments: small Monte Carlo
// and n-body runs and testdata listings at NP 1–4, plus NP=1 loops.
func serveVariants(root string, z serveSizes) ([]variant, error) {
	var vs []variant
	for _, t := range testdataVariants {
		src, err := os.ReadFile(filepath.Join(root, t.file))
		if err != nil {
			return nil, err
		}
		vs = append(vs, variant{fmt.Sprintf("%s@%d", filepath.Base(t.file), t.np), string(src), t.np})
	}
	for _, np := range []int{1, 2, 4} {
		vs = append(vs, variant{fmt.Sprintf("montecarlo@%d", np), experiments.GenMonteCarlo(z.darts, np), np})
	}
	for _, np := range []int{2, 4} {
		vs = append(vs, variant{fmt.Sprintf("nbody@%d", np), withChecksum(experiments.GenNBody(8, 3), 8), np})
	}
	for _, iters := range []int{2_000, 5_000, 10_000, 20_000, 40_000} {
		vs = append(vs, variant{fmt.Sprintf("arith%d@1", iters), arithLoop(iters), 1})
	}
	for _, n := range []int{1_000, 3_000, 8_000} {
		vs = append(vs, variant{fmt.Sprintf("stride%d@1", n), strideLoop(n), 1})
	}
	return vs, nil
}

func strideLoop(iters int) string {
	return fmt.Sprintf(`HAI 1.2
I HAS A a ITZ LOTZ A NUMBRS AN THAR IZ 64
IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN %d
  I HAS A idx ITZ A NUMBR
  idx R MOD OF i AN 64
  a'Z idx R SUM OF a'Z idx AN 1
IM OUTTA YR loop
VISIBLE a'Z 63
KTHXBYE
`, iters)
}

// request is one generated client request with the reference answer.
type request struct {
	kind        string // "resubmit", "fresh", "fail"
	req         server.RunRequest
	body        []byte
	wantOutcome server.Outcome
	wantOutput  string
}

// serveRequests generates the request stream for a seed. Each class
// cycles through the engines, so every class is spread evenly over them.
func serveRequests(root string, seed int64, z serveSizes) ([]*request, error) {
	vs, err := serveVariants(root, z)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(vs)-1))
	vseed := rng.Int63n(1 << 30)
	block := make([]string, mixBlock)
	for i := range block {
		switch {
		case i < mixResubmit:
			block[i] = "resubmit"
		case i < mixResubmit+mixFresh:
			block[i] = "fresh"
		default:
			block[i] = "fail"
		}
	}
	perKind := map[string]int{}
	reqs := make([]*request, 0, z.pool)
	for len(reqs) < z.pool {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			n := perKind[kind]
			perKind[kind]++
			r := &request{kind: kind, req: server.RunRequest{Backend: serveEngines[n%len(serveEngines)], NP: 1}}
			switch kind {
			case "resubmit":
				v := vs[zipf.Uint64()]
				r.req.Src, r.req.NP, r.req.Seed = v.src, v.np, vseed
			case "fresh":
				r.req.Src = progen.New(rng.Int63()).Program(z.freshStmts)
			case "fail":
				// Parse errors and step-budget kills alternate.
				if n%2 == 0 {
					r.req.Src = fmt.Sprintf("HAI 1.2\nVISIBLE SUM OF %d AN\nKTHXBYE\n", rng.Intn(8))
				} else {
					r.req.Src = fmt.Sprintf("HAI 1.2\nI HAS A n ITZ %d\nIM IN YR spin\n  n R SUM OF n AN 1\nIM OUTTA YR spin\nKTHXBYE\n", rng.Intn(8))
					r.req.MaxSteps = failSteps
				}
			}
			if r.body, err = json.Marshal(r.req); err != nil {
				return nil, err
			}
			reqs = append(reqs, r)
		}
	}
	return reqs[:z.pool], nil
}

// refKey identifies one distinct job for the reference computation.
type refKey struct {
	src   string
	np    int
	seed  int64
	steps int64
}

// key is the reference identity of a request; an unset step budget is
// the server's default.
func (r *request) key() refKey {
	steps := r.req.MaxSteps
	if steps == 0 {
		steps = serverStepBudget
	}
	return refKey{r.req.Src, r.req.NP, r.req.Seed, steps}
}

type refResult struct {
	outcome server.Outcome
	output  string
}

// serveReferences computes every request's expected outcome class and
// bytes by calling core directly with the interp engine, outside the
// server, on nproc goroutines. The first sample distinct sources also feed
// the frontend and, in the traced run, the shmem event figures.
func serveReferences(reqs []*request, sample int, f *frontStats, overheadUS *[]float64, events *shmemTimes, rec *recorder) {
	var keys []refKey
	idx := map[refKey]int{}
	for _, r := range reqs {
		k := r.key()
		if _, ok := idx[k]; !ok {
			idx[k] = len(keys)
			keys = append(keys, k)
		}
	}
	results := make([]refResult, len(keys))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(keys) {
					return
				}
				var fs *frontStats
				var log *eventLog
				if i < sample {
					fs = f
					if events != nil {
						log = &eventLog{origin: time.Now()}
					}
				}
				res, wall, exec := reference(keys[i], fs, log, rec)
				results[i] = res
				if fs != nil {
					mu.Lock()
					if exec > 0 {
						*overheadUS = append(*overheadUS, us(wall-exec))
					}
					if log != nil {
						drain(log.take(), events)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range reqs {
		res := results[idx[r.key()]]
		r.wantOutcome, r.wantOutput = res.outcome, res.output
	}
}

// reference runs one job the way the server would, but through core.
func reference(k refKey, f *frontStats, log *eventLog, rec *recorder) (refResult, time.Duration, time.Duration) {
	prog, err := parseTimed("job.lol", k.src, f, rec, -1, -1)
	if err != nil {
		return refResult{outcome: server.OutcomeParseError}, 0, 0
	}
	if f != nil {
		if err := prepareTimed(prog, f, rec, -1, -1); err != nil {
			return refResult{outcome: server.OutcomeRuntime}, 0, 0
		}
	}
	var out strings.Builder
	cfg := backend.Config{NP: k.np, Seed: k.seed, Stdout: &out, GroupOutput: true,
		StepBudget: k.steps, MaxOutput: 1 << 20}
	if log != nil {
		cfg.Tracer = log.tracer()
	}
	start := time.Now()
	res, err := prog.Run(core.RunConfig{Backend: core.BackendInterp, Config: cfg})
	wall := time.Since(start)
	var exec time.Duration
	if res != nil {
		exec = res.ExecWall
	}
	switch {
	case err == nil:
		return refResult{server.OutcomeOK, out.String()}, wall, exec
	case errors.Is(err, backend.ErrStepBudget):
		return refResult{outcome: server.OutcomeBudget}, wall, exec
	default:
		return refResult{outcome: server.OutcomeRuntime}, wall, exec
	}
}

// frontSample bounds how many distinct serve sources feed the frontend
// and runtime layer figures, so set-up stays short.
const frontSample = 256

// serveTarget is one started server behind loopback HTTP.
type serveTarget struct {
	srv *server.Server
	ts  *httptest.Server
}

func (t *serveTarget) close() {
	t.ts.Close()
	t.srv.Close()
}

// startServe starts a server with lolserv's default options and the given
// log handler, and warms it with one request per distinct resubmission.
func startServe(reqs []*request, h slog.Handler) (*serveTarget, error) {
	t := &serveTarget{srv: server.New(server.Options{Logger: slog.New(h)})}
	t.ts = httptest.NewServer(t.srv.Handler())
	client := newClient(1)
	seen := map[string]bool{}
	for i, r := range reqs {
		k := fmt.Sprintf("%x/%d/%s", server.KeyOf(r.req.Src), r.req.NP, r.req.Backend)
		if r.kind != "resubmit" || seen[k] {
			continue
		}
		seen[k] = true
		if _, _, err := post(client, t.ts.URL, fmt.Sprintf("w%d", i), r.body); err != nil {
			t.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return t, nil
}

// serveSetup is the request pool with its started servers.
type serveSetup struct {
	reqs []*request
	// plain logs one text line per request to io.Discard, as lolserv
	// logs by default; the untraced run and the traced run's untraced
	// half use it.
	plain *serveTarget
	// traced captures the log records instead, so stage timings can be
	// joined to requests; nil in the untraced run.
	traced     *serveTarget
	logs       *logCapture
	front      *frontStats
	overheadUS []float64
	events     *shmemTimes
}

func (s *serveSetup) close() {
	s.plain.close()
	if s.traced != nil {
		s.traced.close()
	}
}

// setupServe generates the pool, computes the references, and starts the
// servers: a plain one, and for the traced run a capturing one that is
// warmed the same way, so both halves of that run start alike.
func setupServe(root string, seed int64, z serveSizes, traced bool, rec *recorder) (*serveSetup, error) {
	reqs, err := serveRequests(root, seed, z)
	if err != nil {
		return nil, err
	}
	s := &serveSetup{reqs: reqs, front: &frontStats{}}
	if traced {
		s.events = &shmemTimes{}
	}
	serveReferences(reqs, frontSample, s.front, &s.overheadUS, s.events, rec)
	if s.plain, err = startServe(reqs, slog.NewTextHandler(io.Discard, nil)); err != nil {
		return nil, err
	}
	if traced {
		s.logs = &logCapture{byID: map[string]map[string]float64{}}
		if s.traced, err = startServe(reqs, s.logs); err != nil {
			s.plain.close()
			return nil, err
		}
	}
	return s, nil
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}}
}

// post sends one job and decodes the reply; the returned duration runs
// from sending the request to decoding the body.
func post(c *http.Client, url, id string, body []byte) (server.RunResponse, time.Duration, error) {
	var rr server.RunResponse
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return rr, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Request-Id", id)
	start := time.Now()
	resp, err := c.Do(hreq)
	if err != nil {
		return rr, 0, err
	}
	err = json.NewDecoder(resp.Body).Decode(&rr)
	rtt := time.Since(start)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return rr, rtt, err
}

// served is one completed request of the timed phase.
type served struct {
	idx    int64 // position in the request stream
	id     string
	kind   string
	engine string
	start  time.Time
	rtt    time.Duration
	resp   server.RunResponse
}

type serveResult struct {
	attempted, failed int
	elapsed           time.Duration
	done              []served
	before, after     server.Stats
	firstErr          error
}

// add appends a later slice of the same stream against the same server.
func (r *serveResult) add(o *serveResult) {
	if r.elapsed == 0 {
		r.before = o.before
	}
	r.after = o.after
	r.attempted += o.attempted
	r.failed += o.failed
	r.elapsed += o.elapsed
	r.done = append(r.done, o.done...)
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// measureServe runs a closed loop of `clients` connections against t, each
// sending the next request of the stream, from position `from` on, only
// after the previous reply, until the deadline.
func measureServe(t *serveTarget, reqs []*request, seconds time.Duration, clients int, from int64) *serveResult {
	res := &serveResult{before: t.srv.Stats()}
	client := newClient(clients)
	var next atomic.Int64
	next.Store(from)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(seconds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []served
			var attempted, failed int
			var firstErr error
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				r := reqs[int(i)%len(reqs)]
				id := fmt.Sprintf("q%d", i)
				t0 := time.Now()
				rr, rtt, err := post(client, t.ts.URL, id, r.body)
				attempted++
				if err == nil {
					err = r.verify(rr)
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("request %s (%s, %s): %w", id, r.kind, r.req.Backend, err)
					}
					continue
				}
				// The bytes are checked; keeping them would grow the heap
				// with every request served.
				rr.Output, rr.Errout = "", ""
				mine = append(mine, served{i, id, r.kind, r.req.Backend, t0, rtt, rr})
			}
			mu.Lock()
			defer mu.Unlock()
			res.done = append(res.done, mine...)
			res.attempted += attempted
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.after = t.srv.Stats()
	return res
}

// verify compares a reply with the reference: same outcome class, and
// for completed runs the same bytes.
func (r *request) verify(rr server.RunResponse) error {
	if rr.Outcome != r.wantOutcome {
		return fmt.Errorf("outcome %q, reference %q (%s)", rr.Outcome, r.wantOutcome, rr.Error)
	}
	if rr.Outcome == server.OutcomeOK && rr.Output != r.wantOutput {
		return errors.New("output differs from the interp reference")
	}
	return nil
}

// logCapture is a slog.Handler that keeps each request line's numeric
// fields, keyed by request ID, so stage timings can be joined to the
// client's view of the same request.
type logCapture struct {
	mu   sync.Mutex
	byID map[string]map[string]float64
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }

func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	var id string
	vals := map[string]float64{}
	r.Attrs(func(a slog.Attr) bool {
		switch {
		case a.Key == "id":
			id = a.Value.String()
		case a.Value.Kind() == slog.KindFloat64:
			vals[a.Key] = a.Value.Float64()
		}
		return true
	})
	c.mu.Lock()
	c.byID[id] = vals
	c.mu.Unlock()
	return nil
}

func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler { return c }
func (c *logCapture) WithGroup(string) slog.Handler      { return c }

// stageOrder is the server's lifecycle stage order, used to lay the
// stage spans out inside the server span.
var stageOrder = []string{"admission", "result_cache", "queue_wait", "program_cache", "compile", "execute", "respond"}

// traceServe turns the joined client and server views into spans: the
// client round trip is the root, the server's total its child, and each
// logged stage a child of that. Positions inside the round trip are not
// observable from outside, so the server span is centred in it and the
// stages are laid end to end in lifecycle order. The closure compares the
// figures the server logged with each other and with the round trip.
func traceServe(s *serveSetup, res *serveResult, rec *recorder) (stageMS map[string][]float64, httpMS []float64, clo *closure) {
	stageMS = map[string][]float64{}
	clo = &closure{}
	s.logs.mu.Lock()
	defer s.logs.mu.Unlock()
	for op, d := range res.done {
		root := rec.add("request", op, -1, d.start, d.start.Add(d.rtt))
		vals, ok := s.logs.byID[d.id]
		if !ok {
			clo.add(d.id+": no log line", 0, us(d.rtt))
			continue
		}
		totalMS := vals["total_ms"]
		total := time.Duration(totalMS * float64(time.Millisecond))
		httpMS = append(httpMS, ms(d.rtt-total))
		clo.contain(d.id+": server total inside the round trip", us(d.rtt), 1000*totalMS)
		at := d.start.Add((d.rtt - total) / 2)
		srv := rec.add("server", op, root, at, at.Add(total))
		var stagesMS float64
		for _, st := range stageOrder {
			v, ok := vals[st+"_ms"]
			if !ok {
				continue
			}
			stagesMS += v
			stageMS[st] = append(stageMS[st], v)
			dd := time.Duration(v * float64(time.Millisecond))
			rec.add("server."+st, op, srv, at, at.Add(dd))
			at = at.Add(dd)
		}
		clo.add(d.id+": stages inside the server total", 1000*totalMS, 1000*stagesMS)
	}
	return stageMS, httpMS, clo
}

// traceSlices is how many turns each half of the traced serve run takes.
const traceSlices = 4

// runServe runs the serve workload.
func runServe(cfg config) (*outcome, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	s, setupS, err := timedSetups(cfg.setups, func() (*serveSetup, error) {
		return setupServe(cfg.root, cfg.seed, cfg.sizes.serve, cfg.trace, rec)
	})
	if err != nil {
		return nil, err
	}
	defer s.close()
	clients := runtime.NumCPU()

	m := newMetricSet()
	if !cfg.trace {
		r := measureServe(s.plain, s.reqs, cfg.seconds, clients, 0)
		serveEndToEnd(m, r)
		m.set("setup_s", setupS, "s")
		return &outcome{r.attempted, r.failed, r.firstErr, m}, nil
	}
	// Both halves send the same request stream from its start, each to a
	// server warmed alike; only the log handler differs. They take turns
	// in slices, so heap growth and machine drift fall on both.
	plain, r := &serveResult{}, &serveResult{}
	slice := cfg.seconds / (2 * traceSlices)
	for i := 0; i < traceSlices; i++ {
		plain.add(measureServe(s.plain, s.reqs, slice, clients, int64(plain.attempted)))
		r.add(measureServe(s.traced, s.reqs, slice, clients, int64(r.attempted)))
	}
	s.traced.ts.Close() // every request line is logged before Close returns
	serveEndToEnd(m, r)
	s.front.metrics(m)
	servePerLayer(m, s, r)
	stageMS, httpMS, clo := traceServe(s, r, rec)
	for _, st := range stageOrder {
		if xs, ok := stageMS[st]; ok {
			m.set("server.stage."+st+"_ms", median(xs), "ms")
		}
	}
	m.set("http.overhead_ms", median(httpMS), "ms")
	m.set("trace.overhead_frac", serveOverhead(plain.done, r.done, min(plain.attempted, r.attempted)), "ratio")
	if err := traceMetrics(m, rec, clo, serveMaxGap, cfg); err != nil {
		return nil, err
	}
	firstErr := plain.firstErr
	if firstErr == nil {
		firstErr = r.firstErr
	}
	return &outcome{plain.attempted + r.attempted, plain.failed + r.failed, firstErr, m}, nil
}

// serveOverhead is the traced half's median round trip over the plain
// half's, less one, on the first n requests of the stream, which both
// halves sent.
func serveOverhead(plain, traced []served, n int) float64 {
	first := func(done []served) []float64 {
		var xs []float64
		for _, d := range done {
			if d.idx < int64(n) {
				xs = append(xs, ms(d.rtt))
			}
		}
		return xs
	}
	return ratio(median(first(traced)), median(first(plain))) - 1
}

func rtts(done []served) []float64 {
	xs := make([]float64, len(done))
	for i, d := range done {
		xs[i] = ms(d.rtt)
	}
	return xs
}

// serveEndToEnd reports the client's view. The per-engine figures come
// from fresh programs alone: they pay the frontend, codegen and execution
// on the engine they name, while a result-cache hit costs the same on
// every engine, and one class keeps the median inside a single mode.
func serveEndToEnd(m *metricSet, r *serveResult) {
	fresh := map[string][]float64{}
	byKind := map[string][]float64{}
	for _, d := range r.done {
		byKind[d.kind] = append(byKind[d.kind], ms(d.rtt))
		if d.kind == "fresh" {
			fresh[d.engine] = append(fresh[d.engine], ms(d.rtt))
		}
	}
	for _, e := range serveEngines {
		v, pct := tail(fresh[e])
		m.set("run_ms."+e, median(fresh[e]), "ms")
		m.set("run_tail_ms."+e, v, "ms")
		m.set("run_tail_pct."+e, pct, "%")
		m.set("run_n."+e, float64(len(fresh[e])), "count")
	}
	for _, k := range []string{"resubmit", "fresh", "fail"} {
		m.set("serve."+k+"_ms", median(byKind[k]), "ms")
		m.set("serve."+k+"_n", float64(len(byKind[k])), "count")
	}
	all := rtts(r.done)
	v, pct := tail(all)
	m.set("latency_p50_ms", median(all), "ms")
	m.set("latency_tail_ms", v, "ms")
	m.set("latency_tail_pct", pct, "%")
	m.set("req_per_s", ratio(float64(len(r.done)), r.elapsed.Seconds()), "1/s")
}

func servePerLayer(m *metricSet, s *serveSetup, r *serveResult) {
	exec := map[string][]float64{}
	var queue, wall []float64
	var stats []shmem.StatsSnapshot
	var resubmits, resubmitHits int
	for _, d := range r.done {
		if d.kind == "resubmit" {
			resubmits++
			if d.resp.ResultCacheHit {
				resubmitHits++
			}
		}
		if d.resp.ResultCacheHit || d.resp.Tier == "" {
			continue
		}
		queue = append(queue, d.resp.QueueMS)
		wall = append(wall, d.resp.WallMS)
		if d.resp.Outcome == server.OutcomeOK {
			exec[d.engine] = append(exec[d.engine], d.resp.WallMS)
		}
		if d.resp.Stats != nil {
			stats = append(stats, *d.resp.Stats)
		}
	}
	for _, e := range serveEngines {
		m.set("exec_ms."+e, median(exec[e]), "ms")
	}
	m.set("backend.spmd_overhead_us", median(s.overheadUS), "us")
	shmemCounts(m, stats, float64(len(stats)))
	maxRunning := 0
	for _, st := range stats {
		maxRunning = max(maxRunning, st.Sched.MaxRunning)
	}
	m.set("sched.max_running", float64(maxRunning), "count")
	shmemTimings(m, s.events)
	m.set("server.queue_ms", median(queue), "ms")
	m.set("server.exec_ms", median(wall), "ms")
	b, a := r.before, r.after
	rcHits := a.ResultCache.Hits + a.ResultCache.Coalesced - b.ResultCache.Hits - b.ResultCache.Coalesced
	rcAll := rcHits + a.ResultCache.Misses - b.ResultCache.Misses
	m.set("server.result_cache.hit_ratio", ratio(float64(rcHits), float64(rcAll)), "ratio")
	m.set("server.result_cache.resubmit_hit_ratio", ratio(float64(resubmitHits), float64(resubmits)), "ratio")
	pcHits := a.Cache.Hits - b.Cache.Hits
	m.set("server.program_cache.hit_ratio", ratio(float64(pcHits), float64(pcHits+a.Cache.Misses-b.Cache.Misses)), "ratio")
	m.set("server.program_cache.evictions", float64(a.Cache.Evicted-b.Cache.Evicted), "count")
	m.set("server.rejected", float64(a.JobsRejected-b.JobsRejected), "count")
}
