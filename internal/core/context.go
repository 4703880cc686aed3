package core

import (
	"context"
	"time"

	"repro/internal/ir"
	"repro/internal/machine"
)

// This file is the context-aware entry point of the compiler and the
// graceful-degradation ladder built on top of it. CompileContext wires
// the caller's context into the scheduler's hot loops (cooperative
// cancellation, amortized to one latched-flag check per solver step —
// see engine.solverStep) and, when Options.Degrade is set, retries a
// schedule-search failure with progressively cheaper configurations
// instead of failing outright. CompilePortfolio runs the same ladder
// with the variant race as its interval search.

// CompileContext is Compile observing a context: cancellation and
// deadlines propagate into the interval search, the place pass's
// per-operation loop, and the §4.4 permutation solver, which unwind
// through the existing rollback journal and return a structured
// CompileError of kind KindCancelled or KindDeadlineExceeded carrying
// the pass, interval, and operation in flight. With a background
// context and the default options, CompileContext is bit-identical to
// Compile (the cancellation hook is never armed).
//
// When opts.Degrade is non-nil, a schedule-search failure (and only
// that kind — invalid input, cancellation, and internal errors are
// returned as-is) is retried down the ladder's rungs; a schedule won
// by a rung reports which one in Schedule.Degraded. When the context
// carries a deadline, each attempt gets an even slice of the time
// remaining, so the primary configuration cannot starve the ladder.
func CompileContext(ctx context.Context, k *ir.Kernel, m *machine.Machine, opts Options) (*Schedule, error) {
	return degrade(ctx, opts, func(ctx context.Context, rung *DegradeRung) (*Schedule, error) {
		return compileOnce(ctx, k, m, rung.apply(opts), runLadder)
	})
}

// degrade is the degradation loop shared by both interval searches.
// compile runs one configuration: the primary one (rung nil) or one
// rung of opts.Degrade.
func degrade(ctx context.Context, opts Options, compile func(ctx context.Context, rung *DegradeRung) (*Schedule, error)) (*Schedule, error) {
	ladder := opts.Degrade
	if ladder == nil || len(ladder.Rungs) == 0 {
		return compile(ctx, nil)
	}

	attemptsLeft := 1 + len(ladder.Rungs)
	sched, err := compileSlice(ctx, attemptsLeft, nil, compile)
	if err == nil {
		return sched, nil
	}
	primary := err
	for i := range ladder.Rungs {
		rung := &ladder.Rungs[i]
		attemptsLeft--
		if !degradable(ctx, err) {
			return nil, err
		}
		traceDegrade(opts.Tracer, rung.Name)
		sched, err = compileSlice(ctx, attemptsLeft, rung, compile)
		if err == nil {
			sched.Degraded = rung.Name
			return sched, nil
		}
	}
	if !degradable(ctx, err) {
		// The ladder's last rung was cancelled or died internally:
		// report that, not the older schedule failure.
		return nil, err
	}
	// Every rung failed to schedule too; the primary configuration's
	// report is the representative one (the rungs only search less).
	return nil, primary
}

// compileSlice runs one configuration under an even slice of the
// context's remaining deadline (the whole context when it carries no
// deadline, or when this is the last attempt).
func compileSlice(ctx context.Context, attemptsLeft int, rung *DegradeRung, compile func(context.Context, *DegradeRung) (*Schedule, error)) (*Schedule, error) {
	if dl, ok := ctx.Deadline(); ok && attemptsLeft > 1 {
		if remaining := time.Until(dl); remaining > 0 {
			sliced, cancel := context.WithTimeout(ctx, remaining/time.Duration(attemptsLeft))
			defer cancel()
			ctx = sliced
		}
	}
	return compile(ctx, rung)
}

// degradable reports whether err is a failure the ladder may retry: a
// schedule-search failure, or a deadline that was only the attempt's
// time slice expiring (the parent context is still live).
func degradable(ctx context.Context, err error) bool {
	ce, ok := err.(*CompileError)
	if !ok {
		return false
	}
	switch ce.Kind {
	case KindSchedule:
		return true
	case KindDeadlineExceeded:
		return ctx.Err() == nil
	}
	return false
}

// DegradeLadder is an ordered list of fallback configurations tried
// after the primary one fails to schedule: each rung trades schedule
// quality or search completeness for compile time. DefaultDegradeLadder
// is the stock ladder; callers can build their own.
type DegradeLadder struct {
	Rungs []DegradeRung
}

// DegradeRung is one fallback configuration: the fields that are set
// override the caller's options, the rest are inherited. A rung never
// recurses into the ladder (its options compile with Degrade cleared).
type DegradeRung struct {
	// Name identifies the rung in Schedule.Degraded, stats output, and
	// trace events.
	Name string
	// Greedy replaces the ablation switches with the cheapest pipeline:
	// cycle order, no preassign, no cost heuristic, no register-aware
	// routing.
	Greedy bool
	// MaxII, when positive, replaces the interval cap outright.
	MaxII int
	// MaxIIBoost, when positive, raises a caller-set interval cap by
	// this much (ignored when the caller left MaxII 0, which already
	// derives a generous bound).
	MaxIIBoost int
	// PermBudget, when positive, replaces the §4.4 permutation budget
	// (typically shrinking it).
	PermBudget int
	// AttemptBudget, when positive, replaces the per-operation
	// placement budget.
	AttemptBudget int
	// ScanWindow, when positive, replaces the cycle scan window.
	ScanWindow int
}

// apply returns base reconfigured by the rung; a nil rung (the
// primary configuration) returns base unchanged.
func (r *DegradeRung) apply(base Options) Options {
	if r == nil {
		return base
	}
	o := base
	if r.Greedy {
		o.CycleOrder, o.TwoPhase, o.NoCostHeuristic, o.RegisterAware = true, false, true, false
	}
	if r.MaxII > 0 {
		o.MaxII = r.MaxII
	} else if r.MaxIIBoost > 0 && base.MaxII > 0 {
		o.MaxII = base.MaxII + r.MaxIIBoost
	}
	if r.PermBudget > 0 {
		o.PermBudget = r.PermBudget
	}
	if r.AttemptBudget > 0 {
		o.AttemptBudget = r.AttemptBudget
	}
	if r.ScanWindow > 0 {
		o.ScanWindow = r.ScanWindow
	}
	o.Degrade = nil
	return o
}

// DefaultDegradeLadder is the stock three-rung ladder:
//
//  1. fast-search — the paper's configuration with sharply cut solver
//     budgets, for kernels where the full search burns its budget on
//     hopeless permutations;
//  2. relaxed-ii — a caller-set interval cap raised by 64 (moderate
//     budgets), trading initiation interval for feasibility;
//  3. greedy — cycle-order placement without the cost heuristic and
//     minimal budgets: the cheapest pipeline that still produces a
//     verified schedule.
func DefaultDegradeLadder() *DegradeLadder {
	return &DegradeLadder{Rungs: []DegradeRung{
		{Name: "fast-search", PermBudget: 512, AttemptBudget: 32},
		{Name: "relaxed-ii", MaxIIBoost: 64, PermBudget: 1024},
		{Name: "greedy", Greedy: true, PermBudget: 256, AttemptBudget: 16},
	}}
}
