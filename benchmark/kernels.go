package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// kernelSizes are the kernels workload's program sizes; tests shrink them.
type kernelSizes struct {
	bodies, steps, darts, iters int
}

var kernelsFull = kernelSizes{bodies: 64, steps: 10, darts: 200_000, iters: 500_000}

// piTolerance bounds |estimate − π| for the Monte Carlo kernel. With
// 2×200k darts the standard error is ≈0.0026, and the program prints two
// decimals, so 0.02 is a >5σ band.
const piTolerance = 0.02

// kernelsJobs generates the kernels workload: the paper's §VI.D n-body,
// Monte Carlo π and the E1 scalar-arith loop. The seed reaches the
// programs only as their WHATEVR/WHATEVAR base seed.
func kernelsJobs(seed int64, z kernelSizes) []*job {
	rng := rand.New(rand.NewSource(seed))
	runSeed := rng.Int63n(1 << 30)
	return []*job{
		{name: "nbody", src: withChecksum(experiments.GenNBody(z.bodies, z.steps), z.bodies), np: 2, seed: runSeed},
		{name: "montecarlo", src: experiments.GenMonteCarlo(z.darts, 2), np: 2, seed: runSeed, check: checkPi},
		{name: "arith", src: arithLoop(z.iters), np: 1, seed: runSeed},
	}
}

// withChecksum makes an n-body program print every PE's position sums, so
// the byte-identical output check covers the simulation's result (the
// generated program prints nothing).
func withChecksum(src string, bodies int) string {
	body := strings.TrimSuffix(strings.TrimSpace(src), "KTHXBYE")
	return body + fmt.Sprintf(`I HAS A cx ITZ SRSLY A NUMBAR AN ITZ 0.0
I HAS A cy ITZ SRSLY A NUMBAR AN ITZ 0.0
IM IN YR sums UPPIN YR i TIL BOTH SAEM i AN %d
  cx R SUM OF cx AN pos_x'Z i
  cy R SUM OF cy AN pos_y'Z i
IM OUTTA YR sums
VISIBLE "CHECKSUM " cx " " cy
KTHXBYE
`, bodies)
}

// arithLoop is experiment E1's scalar-arith loop.
func arithLoop(iters int) string {
	return fmt.Sprintf(`HAI 1.2
I HAS A acc ITZ SRSLY A NUMBAR AN ITZ 0.0
IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN %d
  acc R SUM OF acc AN FLIP OF SUM OF i AN 1
IM OUTTA YR loop
VISIBLE acc
KTHXBYE
`, iters)
}

// checkPi accepts Monte Carlo output whose estimate is within piTolerance.
func checkPi(out string) error {
	est, err := strconv.ParseFloat(strings.TrimSpace(out), 64)
	if err != nil {
		return fmt.Errorf("montecarlo printed %q, not a number", out)
	}
	if math.Abs(est-math.Pi) > piTolerance {
		return fmt.Errorf("montecarlo estimate %v is more than %v from π", est, piTolerance)
	}
	return nil
}
