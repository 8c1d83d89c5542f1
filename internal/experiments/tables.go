// Package experiments regenerates every table and figure of Richie & Ross
// (2017) plus the measurable versions of the paper's qualitative claims.
// Each experiment writes a human-readable report; cmd/lolbench is the CLI
// front end.
//
// Experiment index (lolbench subcommands and the bench_test.go groups use
// these ids):
//
//	T1, T2, T3 — conformance tables I-III
//	F1         — Figure 1, the PGAS symmetric memory layout
//	F2         — Figure 2, barrier-synchronized data movement (+ failure injection)
//	E1         — compiler vs interpreter backends
//	E2         — scaling from Parallella-like to XC40-like machines
//	E3         — the lcc -> Go -> executable toolchain
//	E4         — worker-scheduler weak scaling
package experiments

import (
	"fmt"
	"io"

	"repro/internal/conformance"
)

// Tables regenerates paper Tables I-III (experiments T1-T3): every
// construct row is executed on every registered execution engine and
// reported pass/fail — the backend×fixture conformance matrix. It returns
// an error if any cell fails.
func Tables(w io.Writer, which string) error {
	var rows []conformance.Row
	switch which {
	case "I", "1":
		rows = conformance.TableI()
	case "II", "2":
		rows = conformance.TableII()
	case "III", "3":
		rows = conformance.TableIII()
	case "all", "":
		rows = conformance.All()
	default:
		return fmt.Errorf("experiments: unknown table %q (want I, II, III, or all)", which)
	}

	engines := conformance.Engines()
	failures := 0
	cur := ""
	for _, row := range rows {
		if row.Table != cur {
			cur = row.Table
			fmt.Fprintf(w, "\nTABLE %s — %s\n", cur, tableTitle(cur))
			fmt.Fprintf(w, "%-55s", "construct")
			for _, eng := range engines {
				fmt.Fprintf(w, " %-8s", eng.Name())
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-55s", trim(row.Construct, 55))
		for _, eng := range engines {
			res := status(row.Run(eng))
			if res != "ok" {
				failures++
			}
			fmt.Fprintf(w, " %-8s", res)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n%d rows x %d engines, %d failures\n", len(rows), len(engines), failures)
	if failures > 0 {
		return fmt.Errorf("experiments: %d conformance cells failed", failures)
	}
	return nil
}

func tableTitle(t string) string {
	switch t {
	case "I":
		return "basic syntax for LOLCODE language"
	case "II":
		return "parallel and distributed computing extensions"
	case "III":
		return "additional LOLCODE extensions"
	}
	return ""
}

func status(err error) string {
	if err != nil {
		return "FAIL"
	}
	return "ok"
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
