package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

// tinySizes keep every workload to a fraction of a second per phase.
var tinySizes = sizes{
	kernels: kernelSizes{bodies: 8, steps: 2, darts: 100_000, iters: 1_000},
	sync:    stormSizes{np: 8, rounds: 3},
	serve:   serveSizes{pool: 200, freshStmts: 10, darts: 200},
}

func tinyConfig(workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 300 * time.Millisecond, trace: trace,
		root: "..", sizes: tinySizes, setups: 1,
	}
}

func TestTinyRuns(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			out, err := runWorkload(tinyConfig(w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Fatalf("%s trace=%v: %d of %d failed: %v", w, trace, out.failed, out.attempted, out.firstErr)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			for _, name := range want {
				if _, ok := out.metrics.m[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				}
			}
		}
	}
}

func TestSeedsGenerateInputs(t *testing.T) {
	type gen func(seed int64) any
	gens := map[string]gen{
		"kernels": func(s int64) any { return jobInputs(kernelsJobs(s, tinySizes.kernels)) },
		"sync":    func(s int64) any { return jobInputs(syncJobs(s, tinySizes.sync)) },
		"serve": func(s int64) any {
			reqs, err := serveRequests("..", s, tinySizes.serve)
			if err != nil {
				t.Fatal(err)
			}
			var bodies []string
			for _, r := range reqs {
				bodies = append(bodies, string(r.body))
			}
			return bodies
		},
	}
	for name, g := range gens {
		if !reflect.DeepEqual(g(1), g(1)) {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if reflect.DeepEqual(g(1), g(2)) {
			t.Errorf("%s: different seeds generated identical inputs", name)
		}
	}
}

// jobInputs is what a rounds job hands the program: source, NP and seed.
func jobInputs(jobs []*job) []any {
	var in []any
	for _, j := range jobs {
		in = append(in, j.src, j.np, j.seed)
	}
	return in
}

func TestWrongReferenceIsAFailure(t *testing.T) {
	s, err := setupRounds("..", kernelsJobs(7, tinySizes.kernels), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	s.jobs[0].want += "x"
	r := measureRounds(s, 0, 1, nil)
	if want := len(roundEngines); r.failed != want {
		t.Errorf("rounds: %d failures with a wrong reference, want %d (one per engine)", r.failed, want)
	}

	srv, err := setupServe("..", 7, tinySizes.serve, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	for _, rq := range srv.reqs {
		if rq.wantOutcome == "ok" {
			rq.wantOutput += "x"
		} else {
			rq.wantOutcome = "ok"
		}
	}
	sr := measureServe(srv.plain, srv.reqs, 200*time.Millisecond, 1, 0)
	if sr.attempted == 0 || sr.failed != sr.attempted {
		t.Errorf("serve: %d of %d requests failed against wrong references, want all", sr.failed, sr.attempted)
	}
}

func TestPiCheck(t *testing.T) {
	if err := checkPi("3.14\n"); err != nil {
		t.Error(err)
	}
	for _, bad := range []string{"3.17\n", "", "pi"} {
		if checkPi(bad) == nil {
			t.Errorf("checkPi(%q) accepted", bad)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		n       int
		v, pct  float64
		comment string
	}{
		{5, 5, 100, "too few samples: the maximum"},
		{20, 10, 50, "ten samples beyond the 10th of 20"},
		{2000, 1980, 99, "capped at p99"},
	} {
		v, pct := tail(xs[:c.n])
		if v != c.v || pct != c.pct {
			t.Errorf("tail of %d samples = %v at p%v, want %v at p%v (%s)", c.n, v, pct, c.v, c.pct, c.comment)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	rec := newRecorder()
	t0 := rec.origin
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	root := rec.add("round", 0, -1, at(0), at(100))
	run := rec.add("run", 0, root, at(10), at(90))
	rec.add("exec", 0, run, at(20), at(80))
	self := rec.selfTimes()
	if len(self) != 2 || self["run"] != 0.02 || self["exec"] != 0.06 {
		t.Errorf("self times = %v, want run 0.02 ms and exec 0.06 ms", self)
	}
}

func TestClosure(t *testing.T) {
	var c closure
	c.add("fits", 100, 90)
	c.contain("part inside", 90, 80)
	frac, err := c.check(0.2)
	if err != nil || frac != 0.1 {
		t.Fatalf("closure of fitting parts: %v, %v; want 0.1 unattributed", frac, err)
	}
	if _, err := c.check(0.05); err == nil {
		t.Error("a gap above the tolerance passed")
	}
	c.add("runs longer than their round", 100, 150)
	if _, err := c.check(1); err == nil {
		t.Error("parts exceeding their whole passed")
	}
}

// TestServeClosure feeds traceServe server log lines that disagree with
// each other or with the client's round trip.
func TestServeClosure(t *testing.T) {
	for _, c := range []struct {
		name   string
		vals   map[string]float64
		rtt    time.Duration
		wantOK bool
	}{
		{"consistent", map[string]float64{"total_ms": 1, "admission_ms": 0.2, "execute_ms": 0.7}, 2 * time.Millisecond, true},
		{"stages exceed the total", map[string]float64{"total_ms": 1, "admission_ms": 0.5, "execute_ms": 0.7}, 2 * time.Millisecond, false},
		{"total exceeds the round trip", map[string]float64{"total_ms": 3, "execute_ms": 2.9}, 2 * time.Millisecond, false},
	} {
		s := &serveSetup{logs: &logCapture{byID: map[string]map[string]float64{"q0": c.vals}}}
		res := &serveResult{done: []served{{id: "q0", start: time.Now(), rtt: c.rtt}}}
		_, _, clo := traceServe(s, res, newRecorder())
		if _, err := clo.check(1); (err == nil) != c.wantOK {
			t.Errorf("%s: closure error %v, want ok=%v", c.name, err, c.wantOK)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric lists in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		what       string
		json, code []string
	}{
		{"workloads", names(spec.Workloads), workloads},
		{"end_to_end", names(spec.EndToEnd), endToEnd},
		{"per_layer", names(spec.PerLayer), perLayer},
	} {
		if !slices.Equal(c.json, c.code) {
			t.Errorf("BENCHMARK.json %s = %v, code has %v", c.what, c.json, c.code)
		}
	}
}
