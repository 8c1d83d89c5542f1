// Command lolbench regenerates every table and figure of Richie & Ross
// (2017) and the measurable versions of its qualitative claims. Each
// subcommand corresponds to an experiment id in the index of the
// internal/experiments package doc:
//
//	lolbench table1|table2|table3|tables   conformance Tables I-III
//	lolbench fig1 [-np 4] [-f prog.lol]    Figure 1: PGAS symmetric layout
//	lolbench fig2 [-trials 20]             Figure 2: barrier determinism
//	lolbench listingA|B|C|D [-np 4]        §VI example programs
//	lolbench backends                      E1: interpreter vs compiler
//	lolbench weakscale [-darts 200]        E4: worker-scheduler weak scaling
//	lolbench scaling                       E2: Parallella -> XC40 scaling
//	lolbench barriers                      T2 micro: HUGZ latency
//	lolbench locks                         T2 micro: lock contention
//	lolbench remote                        T2 micro: put/get cost vs distance
//	lolbench toolchain                     E3: lcc -> Go over testdata/
//	lolbench serve [-clients 8] [-reqs 50] lolserv load test: req/s, cache, p50/p99
//	lolbench serve -scenario zipf          hot-key /v1/batch load, result cache on/off
//	lolbench serve -scenario promote       native-tier promotion vs -native-threshold=0
//	lolbench all                           everything above
//
// With -bench-json DIR, the serve scenarios merge their metrics into
// DIR/BENCH_serve.json (keyed by scenario) and `lolbench backends`
// writes DIR/BENCH_backend.json — the machine-readable artifacts CI
// uploads alongside the human-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	np := flag.Int("np", 4, "PE count for figure/listing experiments")
	trials := flag.Int("trials", 20, "trials for the Figure 2 determinism experiment")
	file := flag.String("f", "testdata/nbody.lol", "program for the Figure 1 layout")
	dir := flag.String("testdata", "testdata", "directory of .lol programs")
	clients := flag.Int("clients", 8, "concurrent clients for the serve experiment")
	reqs := flag.Int("reqs", 50, "requests per client for the serve experiment")
	workers := flag.Int("workers", 4, "server worker slots for the serve experiment")
	scenario := flag.String("scenario", "mixed", "serve scenario: mixed (per-request load), zipf (hot-key batches, cache on vs off), or promote (native tier vs threshold 0)")
	darts := flag.Int("darts", 200, "darts per PE for the weakscale experiment")
	benchJSON := flag.String("bench-json", "", "directory to write BENCH_serve.json / BENCH_backend.json into (empty = don't)")
	flag.Usage = usage
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Subcommand first, flags after: `lolbench fig1 -np 8`.
	cmd := os.Args[1]
	if err := flag.CommandLine.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	w := os.Stdout
	var err error
	switch cmd {
	case "table1":
		err = experiments.Tables(w, "I")
	case "table2":
		err = experiments.Tables(w, "II")
	case "table3":
		err = experiments.Tables(w, "III")
	case "tables":
		err = experiments.Tables(w, "all")
	case "fig1":
		err = experiments.Fig1(w, *file, *np)
	case "fig2":
		if _, err = experiments.Fig2(w, []int{2, 4, 8, 16}, *trials); err == nil {
			fmt.Fprintln(w)
			err = experiments.Fig2Draw(w, *np)
		}
	case "listingA", "listingB", "listingC", "listingD":
		err = experiments.Listings(w, *dir, *np, cmd[len("listing"):])
	case "backends":
		var rows []experiments.BackendsResult
		if rows, err = experiments.Backends(w); err == nil && *benchJSON != "" {
			err = writeBenchBackend(*benchJSON, rows)
		}
	case "weakscale":
		var rows []experiments.WeakscaleResult
		if rows, err = experiments.Weakscale(w, []int{8, 256, 4096}, *darts); err == nil && *benchJSON != "" {
			err = writeBenchWeakscale(*benchJSON, rows)
		}
	case "scaling":
		_, err = experiments.Scaling(w, []int{1, 2, 4, 8, 16}, []int{32, 64, 128})
	case "barriers":
		err = experiments.BarrierScaling(w, []int{2, 4, 8, 16, 64}, 2000)
	case "locks":
		_, err = experiments.LockContention(w, []int{1, 2, 4, 8, 16}, 500)
	case "remote":
		err = experiments.RemoteAccess(w)
	case "noc":
		err = experiments.NocHeatmap(w, 16, 8, 2)
	case "toolchain":
		err = experiments.Toolchain(w, *dir)
	case "serve":
		var m *experiments.ServeMetrics
		switch *scenario {
		case "zipf":
			m, err = experiments.ServeZipf(w, *clients, *reqs, *workers)
		case "promote":
			m, err = experiments.ServePromote(w, *clients, *reqs, *workers)
		case "mixed", "":
			m, err = experiments.Serve(w, *clients, *reqs, *workers)
		default:
			fmt.Fprintf(os.Stderr, "lolbench: unknown serve scenario %q (want mixed, zipf, or promote)\n", *scenario)
			os.Exit(2)
		}
		if err == nil && m != nil && *benchJSON != "" {
			err = writeBenchServe(*benchJSON, m)
		}
	case "all":
		err = runAll(w, *dir, *np, *trials)
	default:
		fmt.Fprintf(os.Stderr, "lolbench: unknown experiment %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func runAll(w *os.File, dir string, np, trials int) error {
	steps := []func() error{
		func() error { return experiments.Tables(w, "all") },
		func() error { return sep(w, experiments.Fig1(w, dir+"/nbody.lol", np)) },
		func() error {
			_, err := experiments.Fig2(w, []int{2, 4, 8, 16}, trials)
			if err == nil {
				fmt.Fprintln(w)
				err = experiments.Fig2Draw(w, np)
			}
			return sep(w, err)
		},
		func() error { _, err := experiments.Backends(w); return sep(w, err) },
		func() error { _, err := experiments.Weakscale(w, []int{8, 256, 4096}, 200); return sep(w, err) },
		func() error {
			_, err := experiments.Scaling(w, []int{1, 2, 4, 8, 16}, []int{32, 64, 128})
			return sep(w, err)
		},
		func() error { return sep(w, experiments.BarrierScaling(w, []int{2, 4, 8, 16, 64}, 2000)) },
		func() error { _, err := experiments.LockContention(w, []int{1, 2, 4, 8, 16}, 500); return sep(w, err) },
		func() error { return sep(w, experiments.RemoteAccess(w)) },
		func() error { return sep(w, experiments.NocHeatmap(w, 16, 8, 2)) },
		func() error { return sep(w, experiments.Toolchain(w, dir)) },
		func() error { _, err := experiments.Serve(w, 8, 50, 4); return sep(w, err) },
		func() error { _, err := experiments.ServeZipf(w, 8, 50, 4); return sep(w, err) },
		func() error { _, err := experiments.ServePromote(w, 8, 50, 4); return sep(w, err) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// writeBenchServe merges one scenario's metrics into BENCH_serve.json,
// preserving entries written by earlier invocations so CI can run the
// scenarios as separate steps and upload one artifact.
func writeBenchServe(dir string, m *experiments.ServeMetrics) error {
	path := filepath.Join(dir, "BENCH_serve.json")
	all := map[string]*experiments.ServeMetrics{}
	if prev, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(prev, &all) // a corrupt file is overwritten
	}
	all[m.Scenario] = m
	return writeJSONFile(path, all)
}

// benchBackendRow is the machine-readable form of one E1 comparison row.
// vm_over_compile_ratio is the gap the bytecode tier's word ops drive
// down; CI compares it against the committed baseline in
// BENCH_backend.json and warns (never fails) on a >15% regression.
type benchBackendRow struct {
	Workload      string  `json:"workload"`
	InterpMS      float64 `json:"interp_ms"`
	VMMS          float64 `json:"vm_ms"`
	CompileMS     float64 `json:"compile_ms"`
	Speedup       float64 `json:"speedup_interp_over_compile"`
	VMOverCompile float64 `json:"vm_over_compile_ratio"`
}

func writeBenchBackend(dir string, rows []experiments.BackendsResult) error {
	out := make([]any, 0, len(rows))
	for _, r := range rows {
		out = append(out, benchBackendRow{
			Workload:      r.Workload,
			InterpMS:      float64(r.Interp.Microseconds()) / 1000,
			VMMS:          float64(r.VM.Microseconds()) / 1000,
			CompileMS:     float64(r.Compile.Microseconds()) / 1000,
			Speedup:       r.Speedup(),
			VMOverCompile: r.VMOverCompile(),
		})
	}
	return mergeBenchBackendRows(dir, out, false)
}

// benchWeakscaleRow is the machine-readable form of one E4 weak-scaling
// point. The workload key carries the "weakscale" prefix that separates
// this family from the E1 rows in the shared BENCH_backend.json; the CI
// gap check selects rows by vm_over_compile_ratio, which these rows
// don't have, so the two families coexist in one artifact.
type benchWeakscaleRow struct {
	Workload   string  `json:"workload"`
	NP         int     `json:"np"`
	Workers    int     `json:"workers"`
	WallMS     float64 `json:"wall_ms"`
	PEsPerSec  float64 `json:"pes_per_sec"`
	SimMS      float64 `json:"sim_ms"`
	Parks      int64   `json:"parks"`
	MaxRunning int     `json:"max_running"`
}

func writeBenchWeakscale(dir string, rows []experiments.WeakscaleResult) error {
	out := make([]any, 0, len(rows))
	for _, r := range rows {
		out = append(out, benchWeakscaleRow{
			Workload:   fmt.Sprintf("weakscale montecarlo np=%d", r.NP),
			NP:         r.NP,
			Workers:    r.Workers,
			WallMS:     float64(r.Wall.Microseconds()) / 1000,
			PEsPerSec:  r.PEsPerSec,
			SimMS:      r.SimMS,
			Parks:      r.Parks,
			MaxRunning: r.MaxRunning,
		})
	}
	return mergeBenchBackendRows(dir, out, true)
}

// mergeBenchBackendRows rewrites one family of BENCH_backend.json rows —
// the E4 weak-scaling rows (workload prefix "weakscale") or the E1
// backend rows (everything else) — while preserving the other family, so
// `lolbench backends` and `lolbench weakscale` can each refresh the
// shared committed baseline without clobbering the other's columns.
func mergeBenchBackendRows(dir string, rows []any, weakscale bool) error {
	path := filepath.Join(dir, "BENCH_backend.json")
	var merged []any
	if prev, err := os.ReadFile(path); err == nil {
		var old []json.RawMessage
		_ = json.Unmarshal(prev, &old) // a corrupt file is overwritten
		for _, raw := range old {
			var key struct {
				Workload string `json:"workload"`
			}
			_ = json.Unmarshal(raw, &key)
			if strings.HasPrefix(key.Workload, "weakscale") != weakscale {
				// Kept verbatim (RawMessage), so rewriting one family never
				// reformats the other's committed rows.
				merged = append(merged, raw)
			}
		}
	}
	merged = append(merged, rows...)
	return writeJSONFile(path, merged)
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sep(w *os.File, err error) error {
	fmt.Fprintln(w, "\n"+string(make([]byte, 0)))
	fmt.Fprintln(w, "────────────────────────────────────────────────────────────────")
	return err
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: lolbench [flags] <experiment>

experiments:
  table1 table2 table3 tables   regenerate conformance Tables I-III
  fig1                          Figure 1: PGAS symmetric memory layout
  fig2                          Figure 2: barrier determinism (+ failure injection)
  listingA listingB listingC listingD
                                run the §VI example programs
  backends                      E1: interpreter vs compiled backend
  weakscale                     E4: worker-scheduler weak scaling (vm tier,
                                NP 8/256/4096 montecarlo, XC40 simulated time)
  scaling                       E2: weak scaling, Parallella and XC40 models
  barriers locks remote noc     T2 microbenchmarks + NoC traffic heatmap
  toolchain                     E3: lcc -> Go over testdata/
  serve                         lolserv load test: req/s, cache hit rate, p50/p99
                                (-scenario zipf: hot-key /v1/batch load, result
                                 cache on vs -result-cache=0, measured speedup)
                                (-scenario promote: native-tier promotion of a hot
                                 program vs -native-threshold=0, measured speedup)
  all                           run everything

flags:
`)
	flag.PrintDefaults()
}
