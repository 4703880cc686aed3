package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
)

// This file implements portfolio compilation: the §4.6 ablations show
// that no single heuristic setting wins on every kernel/machine pair,
// so instead of committing to one configuration, CompilePortfolio races
// a portfolio of them at each initiation interval in turn, spreading
// one interval's variants across a bounded pool of workers. Selection
// is deterministic — independent of worker count and scheduling order
// — so parallel runs are repeatable.

// Variant is one racing configuration of the portfolio: a named
// pipeline configuration realized as full scheduler options.
type Variant struct {
	Name string
	Opts Options
}

// DefaultVariants is the standard racing lineup derived from a base
// configuration: the base itself plus four pipeline reconfigurations —
// each §4.6/§6/§7 ablation switch of the base's PipelineConfig flipped,
// re-applied over the base's budgets and bounds. The base rides at
// index 0 so that on ties (same interval, same copies) the portfolio
// reproduces the sequential scheduler's choice.
func DefaultVariants(base Options) []Variant {
	pc := base.Pipeline()
	vary := func(name string, f func(*PipelineConfig)) Variant {
		v := pc
		f(&v)
		return Variant{Name: name, Opts: v.Apply(base)}
	}
	return []Variant{
		{Name: "base", Opts: base},
		vary("cost-heuristic", func(c *PipelineConfig) { c.CostHeuristic = !c.CostHeuristic }),
		vary("cycle-order", func(c *PipelineConfig) {
			if c.Order == OrderCycle {
				c.Order = OrderPriority
			} else {
				c.Order = OrderCycle
			}
		}),
		vary("two-phase", func(c *PipelineConfig) { c.Preassign = !c.Preassign }),
		vary("register-aware", func(c *PipelineConfig) { c.RegisterAware = !c.RegisterAware }),
	}
}

// PortfolioOptions configure CompilePortfolio beyond the base scheduler
// options.
type PortfolioOptions struct {
	// Workers bounds the goroutine pool; 0 or less means GOMAXPROCS.
	// One interval races at most len(Variants) cells, so workers
	// beyond the variant count add nothing.
	Workers int
	// Variants overrides the racing lineup; nil means
	// DefaultVariants(base).
	Variants []Variant
	// Pool, when non-nil, is the shared worker pool the race draws its
	// extra workers from (the caller's goroutine always races without a
	// slot). Share one Pool between the daemon and portfolio races to
	// bound total parallelism machine-wide; nil gives this race a
	// private pool of Workers slots. Like Workers, the pool never
	// affects the result — only how fast it arrives.
	Pool *Pool
}

// VariantStats instruments one configuration's share of a portfolio
// run. Wall times depend on scheduling timing and vary between runs;
// every other field is deterministic.
type VariantStats struct {
	Name string
	// Pipeline is the variant's pipeline shape.
	Pipeline PipelineConfig
	// IIsTried counts single-interval attempts run to completion.
	IIsTried int
	// BestII is the winning interval when this variant scheduled
	// there, 0 otherwise; Copies is its copy count at BestII.
	BestII int
	Copies int
	// Wall is the cumulative scheduling time across this variant's
	// attempts (concurrent attempts accumulate in parallel, so the sum
	// over variants can exceed the portfolio's wall clock).
	Wall time.Duration
}

// PortfolioStats records how a portfolio run unfolded.
type PortfolioStats struct {
	Workers int
	// MinII is the resource/recurrence lower bound on the interval.
	MinII int
	// Winner indexes Variants at the winning configuration, -1 when
	// nothing scheduled; WinnerII is the winning interval.
	Winner   int
	WinnerII int
	// IIsTried totals the per-variant counters.
	IIsTried int
	Wall     time.Duration
	Variants []VariantStats
	// Passes aggregates per-pass counters and wall time across every
	// attempt of every variant (lower, regalloc, and verify run once,
	// on the parent compilation), in canonical pipeline order. Pass
	// wall sums across concurrent workers, so it can exceed Wall.
	Passes PassStats
}

// WinnerName returns the winning variant's name, "" when none won.
func (p *PortfolioStats) WinnerName() string {
	if p.Winner < 0 || p.Winner >= len(p.Variants) {
		return ""
	}
	return p.Variants[p.Winner].Name
}

// String renders a one-line-per-variant summary.
func (p *PortfolioStats) String() string {
	s := fmt.Sprintf("portfolio: %d workers, minII=%d, winner=%s II=%d, %d attempts, %v",
		p.Workers, p.MinII, p.WinnerName(), p.WinnerII, p.IIsTried, p.Wall.Round(time.Microsecond))
	for _, v := range p.Variants {
		s += fmt.Sprintf("\n  %-14s %-40s tried=%-3d bestII=%-3d copies=%-3d %v",
			v.Name, v.Pipeline, v.IIsTried, v.BestII, v.Copies, v.Wall.Round(time.Microsecond))
	}
	return s
}

// portfolioCtxError builds the structured report for a portfolio run
// abandoned by its context mid-race.
func portfolioCtxError(ctx context.Context, k *ir.Kernel, m *machine.Machine) *CompileError {
	kind, verb := KindCancelled, "cancelled"
	if ctx.Err() == context.DeadlineExceeded {
		kind, verb = KindDeadlineExceeded, "deadline exceeded"
	}
	ce := compileErrorf(PassPlace, "%s on %s: portfolio compilation %s", k.Name, m.Name, verb)
	ce.Kind = kind
	return ce
}

// cell is one (interval, variant) attempt of the race, written only by
// the worker that ran it and read by the walk after the fan-out joins.
type cell struct {
	eng     *engine
	aborted bool
	err     error
	ps      PassStats
	rec     *obs.Recorder // private trace, spliced by the walk
	wall    time.Duration
}

// CompilePortfolio schedules kernel k onto machine m by racing a
// portfolio of scheduler configurations across a bounded worker pool.
// The race walks the initiation intervals upward from MinII. At each
// interval, up to min(Workers, len(variants)) workers run every
// variant's single-interval attempt to completion, each into its own
// cell; the walk then folds the cells in variant order and stops at
// the first interval where any variant scheduled. Workers beyond the
// variant count add nothing: one interval never has more cells than
// variants.
//
// The winner is chosen deterministically: the first interval that
// schedules, then fewest inserted copies, then lowest variant index.
// Every cell at or below the winning interval runs to completion and
// no cell above it runs at all, so the schedule, the per-variant
// counters, the pass counters, and the spliced trace are identical
// across runs and worker counts; only the PortfolioStats wall times
// vary.
//
// A nil or background ctx disables external cancellation. The zero
// Options value races the paper configuration against its four ablation
// flips (DefaultVariants); existing Compile call sites are unaffected.
func CompilePortfolio(ctx context.Context, k *ir.Kernel, m *machine.Machine, base Options, pf PortfolioOptions) (*Schedule, *PortfolioStats, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	c := &Compilation{Kernel: k, Machine: m, Opts: base, clock: new(passClock)}
	if err := base.ValidateFor(m); err != nil {
		return nil, nil, c.decorate(err)
	}
	variants := pf.Variants
	if len(variants) == 0 {
		variants = DefaultVariants(base)
	}
	for _, v := range variants {
		if err := v.Opts.ValidateFor(m); err != nil {
			if ce, ok := err.(*CompileError); ok {
				ce.Reason = fmt.Sprintf("variant %q: %s", v.Name, ce.Reason)
			}
			return nil, nil, c.decorate(err)
		}
	}
	if err := c.runPass(lowerPass{}); err != nil {
		return nil, nil, c.decorate(err)
	}
	g, minII, maxII := c.Graph, c.MinII, c.MaxII
	workers := pf.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Tracing a race: concurrent attempts would interleave in the shared
	// tracer nondeterministically, so each attempt records into a private
	// child recorder, and the walk splices the streams of completed
	// cells into the base tracer in (interval, variant) order.
	tracer := base.Tracer
	if tracer != nil {
		for i, v := range variants {
			tracer.Emit(obs.Event{
				Kind: obs.KindVariantBegin, Track: "portfolio", Name: v.Name, Op: int32(i),
			})
		}
	}

	stats := &PortfolioStats{
		Workers:  workers,
		MinII:    minII,
		Winner:   -1,
		Variants: make([]VariantStats, len(variants)),
	}
	for i, v := range variants {
		stats.Variants[i].Name = v.Name
		stats.Variants[i].Pipeline = v.Opts.Pipeline()
	}

	var cancel func() bool
	if ctx.Done() != nil {
		cancel = func() bool { return ctx.Err() != nil }
	}
	// run attempts one cell under panic isolation: a panic that escapes
	// tryII's per-pass recovery (or one injected at the portfolio fault
	// site) becomes a structured internal error instead of crashing the
	// process from a bare worker goroutine. An Exhaust rule at the
	// portfolio site makes the cell report infeasible, as if its budgets
	// were spent.
	run := func(ii, vi int, cl *cell) {
		t0 := time.Now()
		defer func() {
			if r := recover(); r != nil {
				cl.eng, cl.aborted = nil, false
				cl.err = &CompileError{
					Kind:   KindInternal,
					Pass:   PassPlace,
					Reason: fmt.Sprintf("internal error racing variant %q at II %d: %v", variants[vi].Name, ii, r),
					Op:     NoOp,
					II:     ii,
					Stack:  string(debug.Stack()),
				}
			}
			cl.wall = time.Since(t0)
		}()
		if base.Faults.Probe(faultinject.SitePortfolio, variants[vi].Name) {
			return
		}
		opts := variants[vi].Opts
		if tracer != nil {
			cl.rec = obs.NewRecorder()
			opts.Tracer = cl.rec
		}
		// Fresh memo per cell: each cell must be a pure function of its
		// configuration and interval for the walk's folds to be
		// deterministic, which a memo shared across racing cells would
		// break.
		var scratch Stats
		cl.eng, cl.aborted, cl.err = tryII(k, m, g, opts, ii, cancel, newPermMemo(), &scratch, &cl.ps, nil)
	}

	pool := pf.Pool
	if pool == nil {
		pool = NewPool(workers)
	}
	var passes PassStats
	finish := func() {
		stats.Passes = append(PassStats(nil), c.clock.stats...)
		stats.Passes.Merge(passes)
		stats.Passes.sortCanonical()
		stats.Wall = time.Since(start)
	}
	cells := make([]cell, len(variants))
	var chosen *engine
	for ii := minII; ii <= maxII && chosen == nil && ctx.Err() == nil; ii++ {
		clear(cells)
		var next atomic.Int32
		pool.Fan(min(workers, len(variants)), func(int) {
			for vi := int(next.Add(1)) - 1; vi < len(cells); vi = int(next.Add(1)) - 1 {
				run(ii, vi, &cells[vi])
			}
		})
		// Fold the interval's cells in variant order. The first internal
		// error in that order sinks the compile.
		var cellErr error
		for vi := range cells {
			cl, vs := &cells[vi], &stats.Variants[vi]
			passes.Merge(cl.ps)
			vs.Wall += cl.wall
			if cl.err != nil {
				if cellErr == nil {
					cellErr = cl.err
				}
				continue
			}
			if cl.aborted {
				continue
			}
			vs.IIsTried++
			stats.IIsTried++
			if cl.rec != nil {
				for _, ev := range cl.rec.Events() {
					ev.Seq = 0
					tracer.Emit(ev)
				}
			}
			if cl.eng != nil {
				vs.BestII, vs.Copies = ii, len(cl.eng.ops)-len(k.Ops)
				if chosen == nil || vs.Copies < stats.Variants[stats.Winner].Copies {
					chosen, stats.Winner, stats.WinnerII = cl.eng, vi, ii
				}
			}
		}
		if cellErr != nil {
			finish()
			return nil, stats, c.decorate(cellErr)
		}
	}
	if ctx.Err() != nil {
		finish()
		return nil, stats, c.decorate(portfolioCtxError(ctx, k, m))
	}
	if chosen == nil {
		finish()
		return nil, stats, c.decorate(compileErrorf(PassPlace,
			"%s does not schedule on %s within II ≤ %d (portfolio of %d variants, %d attempts)",
			k.Name, m.Name, maxII, len(variants), stats.IIsTried))
	}
	if tracer != nil {
		tracer.Emit(obs.Event{
			Kind: obs.KindVariantWin, Track: "portfolio", Name: variants[stats.Winner].Name,
			Op: int32(stats.Winner), II: int32(stats.WinnerII),
		})
	}
	c.eng = chosen
	c.II = stats.WinnerII
	if err := c.runPass(regallocPass{}); err != nil {
		finish()
		return nil, stats, c.decorate(err)
	}
	if err := c.runPass(verifyPass{}); err != nil {
		finish()
		return nil, stats, c.decorate(err)
	}
	finish()
	c.sched.Passes = stats.Passes
	c.sched.Diags = c.Diags
	return c.sched, stats, nil
}
