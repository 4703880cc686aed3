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
// one interval's variants across a bounded pool of workers. The race is
// an interval-search strategy of the one compile driver (compileOnce):
// validation, lowering, regalloc, verify and the degradation ladder are
// shared with CompileContext. Selection is deterministic — independent
// of worker count and scheduling order — so parallel runs are
// repeatable.

// Variant is one racing configuration of the portfolio: a named set of
// full scheduler options.
type Variant struct {
	Name string
	Opts Options
}

// DefaultVariants is the standard racing lineup derived from a base
// configuration: the base itself plus four reconfigurations, each with
// one §4.6/§6/§7 ablation switch of the base flipped and the base's
// budgets and bounds kept. The base rides at index 0 so that on ties
// (same interval, same copies) the portfolio reproduces the sequential
// scheduler's choice.
func DefaultVariants(base Options) []Variant {
	flip := func(name string, f func(*Options)) Variant {
		o := base
		f(&o)
		return Variant{Name: name, Opts: o}
	}
	return []Variant{
		{Name: "base", Opts: base},
		flip("cost-heuristic", func(o *Options) { o.NoCostHeuristic = !o.NoCostHeuristic }),
		flip("cycle-order", func(o *Options) { o.CycleOrder = !o.CycleOrder }),
		flip("two-phase", func(o *Options) { o.TwoPhase = !o.TwoPhase }),
		flip("register-aware", func(o *Options) { o.RegisterAware = !o.RegisterAware }),
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
	// Pipeline is the variant's pipeline shape (Options.Pipeline).
	Pipeline string
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

// PortfolioStats records how a portfolio run unfolded. Under
// degradation it describes the last configuration raced.
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

// cell is one (interval, variant) attempt of the race, written only by
// the worker that ran it and read by the walk after the fan-out joins.
type cell struct {
	eng     *engine
	aborted bool
	err     error
	clock   *obs.Clock    // private pass clock, folded by the walk
	rec     *obs.Recorder // private trace, spliced by the walk
	stats   Stats         // private search totals, folded by the walk
	fail    placeFail     // where placement last stopped
	wall    time.Duration
}

// CompilePortfolio schedules kernel k onto machine m by racing a
// portfolio of scheduler configurations across a bounded worker pool:
// it is CompileContext with the race (raceVariants) as its interval
// search. The race walks the initiation intervals upward from MinII.
// At each interval, up to min(Workers, len(variants)) workers run every
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
// base.Degrade degrades a failed race exactly as it degrades
// CompileContext: each rung races again, the default lineup derived
// from the rung's options and a custom lineup with the rung applied to
// every variant. A nil or background ctx disables external
// cancellation. The zero Options value races the paper configuration
// against its four ablation flips (DefaultVariants). The returned stats
// are nil when the compile failed before the race began.
func CompilePortfolio(ctx context.Context, k *ir.Kernel, m *machine.Machine, base Options, pf PortfolioOptions) (*Schedule, *PortfolioStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var r *race
	s, err := degrade(ctx, base, func(ctx context.Context, rung *DegradeRung) (*Schedule, error) {
		r = &race{pf: pf}
		for _, v := range pf.Variants {
			r.variants = append(r.variants, Variant{Name: v.Name, Opts: rung.apply(v.Opts)})
		}
		return compileOnce(ctx, k, m, rung.apply(base), r.raceVariants)
	})
	if r.stats != nil {
		r.stats.Passes = r.c.passStats()
		r.stats.Wall = r.c.clock.Elapsed()
	}
	return s, r.stats, err
}

// race is the portfolio's interval search for one configuration: its
// raceVariants method is the searchStrategy, and it keeps the
// compilation and the stats for CompilePortfolio to finish.
type race struct {
	pf       PortfolioOptions
	variants []Variant // nil races DefaultVariants of the compile's options
	c        *Compilation
	stats    *PortfolioStats
}

// raceVariants is the race's searchStrategy. It validates the lineup
// against the machine, then walks the intervals upward from MinII,
// racing every variant's attempt at each one, and returns the winner
// of the first interval where any variant scheduled. Each cell's pass
// counters, placement attempts and failure record are folded into c,
// agg and fail in variant order; the winning engine keeps its own
// cell's counters.
func (r *race) raceVariants(c *Compilation, cancel func() bool, agg *Stats, fail *placeFail) (*engine, int, bool, error) {
	variants := r.variants
	if len(variants) == 0 {
		variants = DefaultVariants(c.Opts)
	}
	for _, v := range variants {
		if err := v.Opts.ValidateFor(c.Machine); err != nil {
			if ce, ok := err.(*CompileError); ok {
				ce.Reason = fmt.Sprintf("variant %q: %s", v.Name, ce.Reason)
			}
			return nil, 0, false, err
		}
	}
	r.c = c
	k, m, g := c.Kernel, c.Machine, c.Graph
	workers := r.pf.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Tracing a race: concurrent attempts would interleave in the shared
	// tracer nondeterministically, so each attempt records into a private
	// child recorder, and the walk splices the streams of completed
	// cells into the base tracer in (interval, variant) order.
	tracer := c.Opts.Tracer
	if tracer != nil {
		for i, v := range variants {
			tracer.Emit(obs.Event{
				Kind: obs.KindVariantBegin, Track: "portfolio", Name: v.Name, Op: int32(i),
			})
		}
	}

	stats := &PortfolioStats{
		Workers:  workers,
		MinII:    c.MinII,
		Winner:   -1,
		Variants: make([]VariantStats, len(variants)),
	}
	for i, v := range variants {
		stats.Variants[i].Name = v.Name
		stats.Variants[i].Pipeline = v.Opts.Pipeline()
	}
	r.stats = stats

	// run attempts one cell under panic isolation: a panic that escapes
	// tryII's per-pass recovery (or one injected at the portfolio fault
	// site) becomes a structured internal error instead of crashing the
	// process from a bare worker goroutine. An Exhaust rule at the
	// portfolio site makes the cell report infeasible, as if its budgets
	// were spent.
	run := func(ii, vi int, cl *cell) {
		t0 := time.Now()
		cl.clock = obs.NewClock()
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
		if c.Opts.Faults.Probe(faultinject.SitePortfolio, variants[vi].Name) {
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
		cl.eng, cl.aborted, cl.err = tryII(k, m, g, opts, ii, cancel, newPermMemo(), &cl.stats, cl.clock, &cl.fail)
	}

	pool := r.pf.Pool
	if pool == nil {
		pool = NewPool(workers)
	}
	cancelled := func() bool { return cancel != nil && cancel() }
	cells := make([]cell, len(variants))
	var chosen *engine
	ii := c.MinII - 1
	for chosen == nil && ii < c.MaxII && !cancelled() {
		ii++
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
			c.cells.Merge(passStats(cl.clock))
			vs.Wall += cl.wall
			agg.Attempts += cl.stats.Attempts
			if cl.fail.name != "" {
				*fail = cl.fail
			}
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
			return nil, ii, false, cellErr
		}
	}
	if cancelled() {
		return nil, max(ii, c.MinII), true, nil
	}
	if chosen == nil {
		return nil, 0, false, nil
	}
	if tracer != nil {
		tracer.Emit(obs.Event{
			Kind: obs.KindVariantWin, Track: "portfolio", Name: variants[stats.Winner].Name,
			Op: int32(stats.Winner), II: int32(stats.WinnerII),
		})
	}
	return chosen, 0, false, nil
}
