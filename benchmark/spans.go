package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Op groups the spans of one round or request (-1 for
// set-up); Parent indexes the enclosing span (-1 for an op's root).
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op returning -1.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) at(t time.Time) float64 { return us(t.Sub(r.origin)) }

// add records a finished span and returns its index.
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: r.at(start), End: r.at(end)})
	return len(r.spans) - 1
}

// open records a span whose end is not known yet; close fills it in.
func (r *recorder) open(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	return r.add(name, op, parent, now, now)
}

func (r *recorder) close(i int) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = r.at(time.Now())
}

// timed runs f inside a span.
func (r *recorder) timed(name string, op, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.add(name, op, parent, start, end)
	return end.Sub(start)
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes reports, per layer span name, the median self time per op in
// ms. A span's self time is its duration minus the time its children
// cover; op roots are the end-to-end times and are left out.
func (r *recorder) selfTimes() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	type key struct {
		name string
		op   int
	}
	self := map[key]float64{}
	for i, s := range r.spans {
		if s.Op >= 0 && s.Parent >= 0 {
			self[key{s.Name, s.Op}] += s.dur() - children[i]
		}
	}
	per := map[string][]float64{}
	for k, v := range self {
		per[k.name] = append(per[k.name], v/1000)
	}
	out := map[string]float64{}
	for name, xs := range per {
		out[name] = median(xs)
	}
	return out
}

// closure is the traced run's closure check. For every op it compares an
// end-to-end time with parts inside it that were measured separately: on
// kernels and sync the round wall against the sum of its runs' walls, and
// each run's wall against the engine's own Result.ExecWall; on serve the
// server's logged total_ms against the sum of its logged stages, and
// total_ms against the client's round trip. Parts that exceed their whole
// are a mismatch. The gap a whole leaves is the time no part covers.
type closure struct {
	ops, bad int
	fracs    []float64 // gap ÷ whole, per op
	first    string    // the first mismatch, for the error
}

// closureSlackUS absorbs the rounding of the logged figures (the server
// logs float milliseconds) and the clock reads around a call.
const closureSlackUS = 5

// contain checks that part, measured on its own, fits inside whole (both
// in µs), and returns the gap.
func (c *closure) contain(what string, whole, part float64) float64 {
	if part > whole+closureSlackUS {
		c.bad++
		if c.first == "" {
			c.first = fmt.Sprintf("%s: %.1f µs of parts inside %.1f µs", what, part, whole)
		}
	}
	return whole - part
}

// add checks one op's parts against its whole and records the gap's share.
func (c *closure) add(what string, whole, parts float64) {
	c.ops++
	c.fracs = append(c.fracs, ratio(c.contain(what, whole, parts), whole))
}

// check returns the median gap share, trace.unattributed_frac. It fails
// when any part exceeded its whole, or when the median share of an op no
// part covers exceeds maxFrac.
func (c *closure) check(maxFrac float64) (float64, error) {
	if c.bad > 0 {
		return 0, fmt.Errorf("trace closure: %d mismatches over %d ops; first: %s", c.bad, c.ops, c.first)
	}
	frac := median(c.fracs)
	if frac > maxFrac {
		return frac, fmt.Errorf("trace closure: the parts leave %.3f of a median op unattributed, more than %.3f", frac, maxFrac)
	}
	return frac, nil
}
