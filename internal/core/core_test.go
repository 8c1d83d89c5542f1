package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/interp"
)

func testdata(name string) string { return filepath.Join("..", "..", "testdata", name) }

func runFile(t *testing.T, name string, np int, backend Backend) string {
	t.Helper()
	prog, err := ParseFile(testdata(name))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	var out strings.Builder
	_, err = prog.Run(RunConfig{
		Config: interp.Config{
			NP:          np,
			Seed:        42,
			Stdout:      &out,
			GroupOutput: true,
		},
		Backend: backend,
	})
	if err != nil {
		t.Fatalf("run %s (np=%d, %v): %v", name, np, backend, err)
	}
	return out.String()
}

var backends = Backends()

// TestLocksListing checks the paper's §VI.B behaviour: with the implicit
// lock, np concurrent increments of PE 0's counter produce exactly np.
func TestLocksListing(t *testing.T) {
	for _, b := range backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			got := runFile(t, "locks.lol", 8, b)
			want := "COUNTER IZ 8\n"
			if got != want {
				t.Errorf("output = %q, want %q", got, want)
			}
		})
	}
}

// TestFig2Listing verifies the barrier-synchronized neighbour exchange of
// Figure 2: c = a + b is deterministic because HUGZ orders the puts.
func TestFig2Listing(t *testing.T) {
	for _, b := range backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			got := runFile(t, "fig2.lol", 4, b)
			want := "" +
				"PE 0: a=10 b=40 c=50\n" +
				"PE 1: a=20 b=10 c=30\n" +
				"PE 2: a=30 b=20 c=50\n" +
				"PE 3: a=40 b=30 c=70\n"
			if got != want {
				t.Errorf("output =\n%q\nwant\n%q", got, want)
			}
		})
	}
}

// TestRingListing checks §VI.A: every PE ends up with its ring neighbour's
// array after the predicated whole-array copy.
func TestRingListing(t *testing.T) {
	for _, b := range backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			got := runFile(t, "ring.lol", 4, b)
			var want strings.Builder
			for pe := 0; pe < 4; pe++ {
				next := (pe + 1) % 4
				fmt.Fprintf(&want, "PE %d HAZ %d THRU %d\n", pe, next*100, next*100+31)
			}
			if got != want.String() {
				t.Errorf("output =\n%q\nwant\n%q", got, want.String())
			}
		})
	}
}

// TestRingRace runs the paper's original §VI.A form, which copies into the
// same symmetric array it reads from; testdata/ring.lol is the race-free
// form. The copy is racy: each PE must end with *some* PE's original
// block, but which one depends on scheduling. The test pins down exactly
// the guaranteed part.
func TestRingRace(t *testing.T) {
	const src = `HAI 1.2
I HAS A pe ITZ A NUMBR AN ITZ ME
I HAS A n_pes ITZ A NUMBR AN ITZ MAH FRENZ
WE HAS A array ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 32
I HAS A next_pe ITZ A NUMBR AN ITZ SUM OF pe AN 1
next_pe R MOD OF next_pe AN n_pes
IM IN YR fill UPPIN YR i TIL BOTH SAEM i AN 32
  array'Z i R SUM OF PRODUKT OF pe AN 100 AN i
IM OUTTA YR fill
HUGZ
TXT MAH BFF next_pe, MAH array R UR array
HUGZ
VISIBLE array'Z 0
KTHXBYE`
	prog, err := Parse("ring-race.lol", src)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := prog.Run(RunConfig{Config: interp.Config{NP: 4, Stdout: &out, GroupOutput: true}}); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Fields(out.String()) {
		switch line {
		case "0", "100", "200", "300":
		default:
			t.Errorf("PE holds %q, which is not any PE's original block", line)
		}
	}
}

// TestTrylockListing runs the §V trylock/lock/unlock fragment.
func TestTrylockListing(t *testing.T) {
	for _, b := range backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			got := runFile(t, "trylock.lol", 2, b)
			if !strings.Contains(got, "PE 0 DUN MESIN") || !strings.Contains(got, "PE 1 DUN MESIN") {
				t.Errorf("missing per-PE completion lines in %q", got)
			}
		})
	}
}

// TestNBodyListing runs the paper's full §VI.D 2D n-body program and sanity
// checks its output shape: a greeting plus 32 particle positions per PE.
func TestNBodyListing(t *testing.T) {
	if testing.Short() {
		t.Skip("n-body is heavyweight for -short")
	}
	for _, b := range backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			np := 2
			got := runFile(t, "nbody.lol", np, b)
			lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
			want := np * (2 + 32)
			if len(lines) != want {
				t.Fatalf("got %d output lines, want %d", len(lines), want)
			}
			if !strings.Contains(got, "HAI ITZ 0 I HAS PARTICLZ 2 MUV") {
				t.Error("missing PE 0 greeting")
			}
			if !strings.Contains(got, "O HAI ITZ 1, MAH PARTICLZ IZ:") {
				t.Error("missing PE 1 trailer")
			}
		})
	}
}

// TestStencil runs the 1D heat-diffusion stencil (halo exchange built from
// the paper's primitives): deterministic arithmetic makes the temperatures
// exact, and physics makes them decay away from PE 0's hot boundary.
func TestStencil(t *testing.T) {
	for _, b := range backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			got := runFile(t, "stencil.lol", 4, b)
			want := "" +
				"PE 0 EDGE TEMPZ 82.38 7.84\n" +
				"PE 1 EDGE TEMPZ 4.14 0.02\n" +
				"PE 2 EDGE TEMPZ 0.00 0.00\n" +
				"PE 3 EDGE TEMPZ 0.00 0.00\n"
			if got != want {
				t.Errorf("output =\n%q\nwant\n%q", got, want)
			}
		})
	}
}

// TestFuncsProgram exercises Table I's modular programming: recursion
// (gcd), multiple return paths (clamp), and fall-off-the-end returns.
func TestFuncsProgram(t *testing.T) {
	for _, b := range backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			got := runFile(t, "funcs.lol", 1, b)
			want := "21\n9\n0\n5\nO HAI!!!\n"
			if got != want {
				t.Errorf("output = %q, want %q", got, want)
			}
		})
	}
}

// TestSortProgram runs the odd-even transposition sort: after MAH FRENZ
// phases the per-PE values (7*(ME+3)) mod 10 must be globally sorted.
func TestSortProgram(t *testing.T) {
	for _, b := range backends {
		for _, np := range []int{2, 6, 8} {
			b, np := b, np
			t.Run(fmt.Sprintf("%v/np%d", b, np), func(t *testing.T) {
				got := runFile(t, "sort.lol", np, b)
				// Compute the expected sorted sequence.
				vals := make([]int, np)
				for pe := 0; pe < np; pe++ {
					vals[pe] = (7 * (pe + 3)) % 10
				}
				sort.Ints(vals)
				var want strings.Builder
				for pe, v := range vals {
					fmt.Fprintf(&want, "PE %d HAS %d\n", pe, v)
				}
				if got != want.String() {
					t.Errorf("output =\n%q\nwant\n%q", got, want.String())
				}
			})
		}
	}
}

// TestPrimesProgram checks the trial-division sieve: 25 primes below 100.
func TestPrimesProgram(t *testing.T) {
	for _, b := range backends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			got := runFile(t, "primes.lol", 2, b)
			want := "FOUND 25 PRIMEZ\nLAST WUN WUZ 97\nDATS RITE\n"
			if got != want {
				t.Errorf("output = %q, want %q", got, want)
			}
		})
	}
}

// TestBackendsAgree runs every testdata program on all three backends with
// the same seed and requires identical output — the differential test that
// keeps the VM and the compiler honest against the interpreter.
func TestBackendsAgree(t *testing.T) {
	files, err := filepath.Glob(testdata("*.lol"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		name := filepath.Base(f)
		if testing.Short() && name == "nbody.lol" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			np := 4
			ref := runFile(t, name, np, BackendInterp)
			for _, b := range []Backend{BackendVM, BackendCompile} {
				if got := runFile(t, name, np, b); got != ref {
					t.Errorf("%v disagrees with interp:\ninterp: %q\n%v:     %q", b, ref, b, got)
				}
			}
		})
	}
}

// TestParseErrorsSurface checks that broken programs produce diagnostics
// rather than running.
func TestParseErrorsSurface(t *testing.T) {
	if _, err := Parse("bad.lol", "HAI 1.2\nVISIBLE\nKTHXBYE"); err == nil {
		t.Error("VISIBLE with no args should fail")
	}
	if _, err := Parse("bad.lol", "HAI 1.2\nI HAS A x\nI HAS A x\nKTHXBYE"); err == nil {
		t.Error("duplicate declaration should fail")
	}
	if _, err := Parse("bad.lol", "VISIBLE 1\nKTHXBYE"); err == nil {
		t.Error("missing HAI should fail")
	}
}
