package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// stormSizes are the sync workload's sizes; tests shrink them.
type stormSizes struct {
	np, rounds int
}

// syncFull keeps NP at 64: the smallest world at which auto mode puts the
// vm on the worker pool while interp and compile stay goroutine-per-PE.
var syncFull = stormSizes{np: 64, rounds: 50}

// stormPeers is how many neighbours each PE reads per round.
const stormPeers = 4

// syncJobs generates the barrier/lock storm. Each round every PE publishes
// a stamp, HUGZ, reads stormPeers neighbours' stamps one-sidedly, bumps a
// lock-guarded counter homed on PE 0 with a remote put, and HUGZ again.
// The seed picks the neighbour offsets, which are baked into the source.
func syncJobs(seed int64, z stormSizes) []*job {
	rng := rand.New(rand.NewSource(seed))
	offs := rng.Perm(z.np - 1)[:stormPeers]
	for i := range offs {
		offs[i]++
	}
	var reads strings.Builder
	for _, o := range offs {
		fmt.Fprintf(&reads, "  nb R MOD OF SUM OF ME AN %d AN MAH FRENZ\n", o)
		reads.WriteString("  TXT MAH BFF nb, seen R SUM OF seen AN UR stamp\n")
	}
	src := fmt.Sprintf(`HAI 1.2
WE HAS A stamp ITZ SRSLY A NUMBR
WE HAS A counter ITZ SRSLY A NUMBR AN IM SHARIN IT
I HAS A seen ITZ SRSLY A NUMBR AN ITZ 0
I HAS A nb ITZ SRSLY A NUMBR
IM IN YR storm UPPIN YR r TIL BOTH SAEM r AN %d
  stamp R SUM OF PRODUKT OF r AN 1000 AN ME
  HUGZ
%s  IM SRSLY MESIN WIF counter
  TXT MAH BFF 0, UR counter R SUM OF UR counter AN 1
  DUN MESIN WIF counter
  HUGZ
IM OUTTA YR storm
I HAS A final ITZ SRSLY A NUMBR
TXT MAH BFF 0, final R UR counter
VISIBLE "COUNTER :{final} SEEN :{seen}"
KTHXBYE
`, z.rounds, reads.String())
	want := stormWant(z, offs)
	return []*job{{
		name: "storm", src: src, np: z.np, seed: rng.Int63n(1 << 30),
		check: func(out string) error {
			if out != want {
				return fmt.Errorf("storm output differs from the expected R×NP counter and stamp sums")
			}
			return nil
		},
	}}
}

// stormWant is the storm's exact output: every PE prints the counter,
// rounds×NP, and the sum of the stamps it read.
func stormWant(z stormSizes, offs []int) string {
	var b strings.Builder
	for me := 0; me < z.np; me++ {
		seen := 0
		for r := 0; r < z.rounds; r++ {
			for _, o := range offs {
				seen += r*1000 + (me+o)%z.np
			}
		}
		fmt.Fprintf(&b, "COUNTER %d SEEN %d\n", z.rounds*z.np, seen)
	}
	return b.String()
}
