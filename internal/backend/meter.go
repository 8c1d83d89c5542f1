package backend

import (
	"context"
	"errors"
	"fmt"
)

// ErrStepBudget reports that a PE ran past Config.StepBudget. Engines wrap
// it in a RuntimeError carrying the position of the statement that crossed
// the line, so errors.Is(err, ErrStepBudget) identifies budget kills from
// any backend.
var ErrStepBudget = errors.New("step budget exceeded")

// meterInterval is how many steps a PE may take between deadline/budget
// checks. Amortizing the check keeps the engines' dispatch loops hot: the
// per-step cost is one decrement and one predictable branch; the context
// poll and budget arithmetic happen at most once per interval (or sooner
// when the remaining budget is smaller than the interval).
const meterInterval = 1024

// unmetered is the credit grant used when neither a context nor a budget
// is configured: large enough that syncSlow is never reached in practice.
const unmetered = int64(1) << 62

// Meter enforces Config.Context and Config.StepBudget for one PE. Each
// engine calls Step once per unit of work — the interpreter per statement,
// the VM per instruction, the closure compiler per loop back-edge and
// barrier — so the budget is engine-relative but the enforcement machinery
// is shared. The zero Meter is not valid; build one with NewMeter.
type Meter struct {
	ctx    context.Context
	done   <-chan struct{}
	limit  int64 // steps allowed in total; 0 = unlimited
	used   int64 // steps fully accounted at the last sync
	grant  int64 // size of the credit issued at the last sync
	credit int64 // steps remaining before the next sync
}

// NewMeter builds the per-PE meter for cfg.
func NewMeter(cfg *Config) Meter {
	m := Meter{limit: cfg.StepBudget}
	if cfg.Context != nil {
		m.ctx = cfg.Context
		m.done = cfg.Context.Done()
	}
	m.grant = m.nextGrant()
	m.credit = m.grant
	return m
}

func (m *Meter) nextGrant() int64 {
	if m.limit <= 0 && m.done == nil {
		return unmetered
	}
	g := int64(meterInterval)
	if m.limit > 0 {
		// +1 so the grant covers the first over-budget *attempt*: Step runs
		// before the step executes, so the budget kill fires on attempting
		// step limit+1, after exactly limit steps have run.
		if rem := m.limit - m.used + 1; rem < g {
			g = rem
		}
	}
	return g
}

// Step accounts one engine step. The fast path is branch-plus-decrement;
// it is small enough for the compiler to inline into dispatch loops.
func (m *Meter) Step() error {
	if m.credit--; m.credit > 0 {
		return nil
	}
	return m.syncSlow(1)
}

// StepN accounts n engine steps at once. The VM uses it for each
// instruction, which carries the static step weight of the stack
// instructions a plain compilation would execute for it: a budget of N
// still permits exactly N such steps, because the kill condition
// (used+n > limit) is identical whether the n steps are attempted one at
// a time or as a block. The only observable difference is where inside
// the block the kill is reported — a killed instruction reports the
// whole block unexecuted, where a plain stack compilation may have
// executed a prefix before dying.
func (m *Meter) StepN(n int64) error {
	if m.credit -= n; m.credit > 0 {
		return nil
	}
	return m.syncSlow(n)
}

// syncSlow settles the consumed credit, checks the context and the budget,
// and issues the next credit. n is the size of the step attempt that
// triggered the sync; with weighted steps the credit can be overdrawn by
// up to n-1, so the settled amount is grant minus the (non-positive)
// remaining credit.
func (m *Meter) syncSlow(n int64) error {
	m.used += m.grant - m.credit
	if m.done != nil {
		select {
		case <-m.done:
			return m.ctx.Err()
		default:
		}
	}
	// m.used counts the attempt that triggered this sync, which has not
	// executed; strictly-greater means exactly limit steps are allowed.
	if m.limit > 0 && m.used > m.limit {
		return fmt.Errorf("%w: PE ran %d steps (limit %d)", ErrStepBudget, m.used-n, m.limit)
	}
	m.grant = m.nextGrant()
	m.credit = m.grant
	return nil
}

// Refund returns n steps of credit. The VM calls it when an instruction
// suspends instead of executing: the instruction was charged before
// dispatch and will be charged again when the resumed frame re-executes
// it, so without the refund every park would bill one phantom step and
// worker mode would kill budgeted programs earlier than goroutine mode.
// If the original charge crossed a sync (settling `used`), the refunded
// credit exactly absorbs the re-charge, so `used` still counts the
// instruction once — metering stays mode-independent.
func (m *Meter) Refund(n int64) { m.credit += n }

// Used reports the steps accounted so far (within one interval of exact).
func (m *Meter) Used() int64 { return m.used + (m.grant - m.credit) }
