package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail: the
// tail of record is the highest percentile, capped at tailCapPct, that
// has at least this many samples beyond it. The cap keeps long runs from
// reporting their handful of slowest samples, which scheduler hiccups on
// a shared machine decide.
const (
	tailBeyond = 10
	tailCapPct = 99
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle ones for
// an even count); zero for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the tail of record and the percentile it sits at. With
// too few samples for the rule it returns the maximum at percentile 100,
// which the report marks as such.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	k := min(n-tailBeyond-1, int(math.Ceil(tailCapPct*float64(n)/100))-1)
	return s[k], 100 * float64(k+1) / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a rate over no attempts).
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
