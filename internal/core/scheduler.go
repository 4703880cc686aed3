package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/depgraph"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
)

// attemptBudgetDefault bounds (cycle, unit) placements tried per
// operation when Options.AttemptBudget is zero.
const attemptBudgetDefault = 128

// Options tune the scheduler. The zero value gives the configuration
// used for the paper's results; the ablation switches reproduce the
// §4.6 design-choice comparisons (Options.Pipeline expresses them as a
// pipeline configuration).
type Options struct {
	// MaxII caps the initiation-interval search; 0 derives a generous
	// bound from the loop size.
	MaxII int
	// PermBudget bounds each stub-permutation search (§4.4); 0 means
	// the default of 4096 steps.
	PermBudget int
	// MaxCandidates caps ordered stub-candidate lists; 0 means 1024. A
	// positive cap must be at least the machine's CandidateFloor — the
	// longest statically ordered stub list — or §4.4 completeness breaks;
	// ValidateFor rejects smaller caps.
	MaxCandidates int
	// ScanWindow bounds how many cycles past the dependence-earliest
	// cycle an operation is tried on, and how far cross-block copies
	// scan; 0 derives defaults (4·II in the loop, 256 in the preamble).
	ScanWindow int
	// NoCostHeuristic disables the equation-1 communication-cost
	// ordering of candidate functional units (§4.6 ablation); units are
	// then tried by load and id only.
	NoCostHeuristic bool
	// CycleOrder schedules operations in cycle order (greedy ASAP)
	// instead of the paper's operation order along the critical path
	// (§4.6 ablation).
	CycleOrder bool
	// AttemptBudget bounds how many (cycle, unit) placements are tried
	// per operation before the current initiation interval is declared
	// infeasible; 0 means 128.
	AttemptBudget int
	// RegisterAware enables §7's proposed improvement: per-file
	// implicit register demand influences routing, steering values away
	// from files whose capacity the close would exceed (soft — falls
	// back when no file fits; Stats.PressureOverflows counts those).
	RegisterAware bool
	// TwoPhase emulates the multi-phase schedulers of §6 ("Most
	// scheduling algorithms assign operations to functional units and
	// schedule operations on cycles using separate phases"): every
	// operation is bound to a unit up front (class round-robin in
	// priority order) and only cycles are searched afterwards. The
	// paper's unified approach normally wins because "the multi-phase
	// approach requires that an operation be delayed to a later cycle
	// if an assigned functional unit is occupied, even if another
	// suitable functional unit is available."
	TwoPhase bool
	// Tracer receives structured events at every scheduling decision
	// point (internal/obs). nil — the default — disables tracing at
	// zero cost: no event is constructed, nothing allocates. Tracing is
	// passive and never changes a scheduling decision; pass an
	// obs.Recorder and export with obs.WriteChromeTrace, or fold the
	// schedule's interconnect usage with Schedule.InterconnectUtilization
	// (which needs no tracer at all).
	Tracer obs.Tracer
	// Degrade arms the graceful-degradation ladder: when the primary
	// configuration exhausts its search bounds (or its slice of the
	// deadline), CompileContext retries with the ladder's cheaper rungs
	// instead of failing outright. nil — the default — disables
	// degradation; see DefaultDegradeLadder. Only schedule-search
	// failures degrade: invalid input, cancellation, and internal
	// errors never do.
	Degrade *DegradeLadder
	// Faults arms the deterministic fault-injection plane
	// (internal/faultinject) for robustness testing: forced pass
	// panics, forced budget exhaustion, artificial solver delays. nil —
	// the default — disables injection at zero cost (one pointer
	// compare per probe site, nothing allocates).
	Faults *faultinject.Plane
}

// Validate rejects option values that cannot mean anything: negative
// budgets and bounds (zero always means "use the default"). Compile and
// CompilePortfolio call it up front so a bad configuration fails with a
// descriptive options-pass error instead of being silently clamped to a
// default mid-attempt.
func (o Options) Validate() error {
	var bad []string
	if o.MaxII < 0 {
		bad = append(bad, fmt.Sprintf("MaxII %d is negative (0 derives a bound; positive caps the interval search)", o.MaxII))
	}
	if o.PermBudget < 0 {
		bad = append(bad, fmt.Sprintf("PermBudget %d is negative (0 means the 4096-step default)", o.PermBudget))
	}
	if o.MaxCandidates < 0 {
		bad = append(bad, fmt.Sprintf("MaxCandidates %d is negative (0 means the default of %d)", o.MaxCandidates, maxCandidatesDefault))
	}
	if o.ScanWindow < 0 {
		bad = append(bad, fmt.Sprintf("ScanWindow %d is negative (0 derives per-block defaults)", o.ScanWindow))
	}
	if o.AttemptBudget < 0 {
		bad = append(bad, fmt.Sprintf("AttemptBudget %d is negative (0 means the default of 128)", o.AttemptBudget))
	}
	if len(bad) == 0 {
		return nil
	}
	ce := compileErrorf(PassOptions, "invalid options: %s", strings.Join(bad, "; "))
	ce.Kind = KindInvalidInput
	return ce
}

// Statically defaulted budget values: the value the scheduler
// substitutes when the corresponding Options field is zero. Exported so
// layers that key on a configuration (the daemon's content-addressed
// schedule cache) can canonicalize an Options value instead of treating
// the zero form and the spelled-out default as distinct.
const (
	DefaultPermBudget    = permBudgetDefault
	DefaultMaxCandidates = maxCandidatesDefault
	DefaultAttemptBudget = attemptBudgetDefault
)

// Canonical resolves the statically defaulted budget fields to their
// documented defaults: the result schedules bit-identically to o, and
// two option values that differ only in spelling a default as zero
// canonicalize equal. MaxII and ScanWindow stay untouched — their zero
// forms derive from the kernel and the interval under trial, not from
// a constant — as do the pointer-valued fields (Tracer, Degrade,
// Faults).
func (o Options) Canonical() Options {
	if o.PermBudget == 0 {
		o.PermBudget = DefaultPermBudget
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = DefaultMaxCandidates
	}
	if o.AttemptBudget == 0 {
		o.AttemptBudget = DefaultAttemptBudget
	}
	return o
}

// ValidateFor checks the options against a concrete machine: everything
// Validate checks, plus that a positive MaxCandidates does not truncate
// any of the machine's statically ordered stub lists. A cap below the
// machine's CandidateFloor can cut same-distance stubs, and in a
// crowded cycle the surviving prefix may cover only conflicting buses —
// silently breaking the §4.4 completeness requirement. Compile and
// CompilePortfolio call this up front so the misconfiguration fails
// with a structured options-pass error instead of an occasional
// mysterious does-not-schedule.
func (o Options) ValidateFor(m *machine.Machine) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if floor := m.CandidateFloor(); o.MaxCandidates > 0 && o.MaxCandidates < floor {
		ce := compileErrorf(PassOptions,
			"invalid options: MaxCandidates %d is below %s's candidate floor %d (the longest statically ordered stub list); truncating it breaks §4.4 completeness",
			o.MaxCandidates, m.Name, floor)
		ce.Kind = KindInvalidInput
		return ce
	}
	return nil
}

// Compile schedules kernel k onto machine m by running the pass
// pipeline: lower readies the kernel, then for each candidate
// initiation interval the per-interval passes (prioritize, preassign
// under TwoPhase, place — with close-comms and insert-copies nested
// inside place) attempt a schedule, and regalloc + verify finish the
// winner. The loop block is modulo scheduled at the smallest feasible
// initiation interval, then the preamble is list scheduled, with
// communication scheduling allocating interconnect for every value
// moved. The returned Schedule contains placements for every operation
// (including inserted copies), the route of every communication,
// instrumentation counters, and the per-pass statistics.
func Compile(k *ir.Kernel, m *machine.Machine, opts Options) (*Schedule, error) {
	return CompileContext(context.Background(), k, m, opts)
}

// compileOnce runs one full compilation of the primary (or one rung's)
// configuration, observing ctx cooperatively: the cancellation hook is
// armed only when ctx can actually be cancelled, so a background
// context compiles on the exact pre-cancellation code path and
// schedules stay bit-identical to it.
func compileOnce(ctx context.Context, k *ir.Kernel, m *machine.Machine, opts Options) (*Schedule, error) {
	c := &Compilation{Kernel: k, Machine: m, Opts: opts, clock: new(passClock)}
	if err := opts.ValidateFor(m); err != nil {
		return nil, c.decorate(err)
	}
	if err := c.runPass(lowerPass{}); err != nil {
		return nil, c.decorate(err)
	}
	var cancel func() bool
	if ctx.Done() != nil {
		cancel = func() bool { return ctx.Err() != nil }
	}
	var agg Stats
	var lastFail placeFail
	good, abortII, aborted, searchErr := runLadder(c, cancel, &agg, &lastFail)
	if searchErr != nil {
		return nil, c.decorate(searchErr)
	}
	if aborted {
		return nil, c.decorate(c.ctxError(ctx, abortII, lastFail))
	}
	if good == nil {
		return nil, c.decorate(scheduleFailure(c, agg, lastFail))
	}
	good.stats.IIsTried = agg.IIsTried
	good.stats.Backtracks += agg.Backtracks
	good.stats.MemoHits += agg.MemoHits
	c.eng = good
	c.II = good.ii
	if err := c.runPass(regallocPass{}); err != nil {
		return nil, c.decorate(err)
	}
	if err := c.runPass(verifyPass{}); err != nil {
		return nil, c.decorate(err)
	}
	c.clock.stats.sortCanonical()
	c.sched.Passes = c.clock.stats
	c.sched.Diags = c.Diags
	return c.sched, nil
}

// ctxError builds the structured cancellation/deadline report for a
// compilation abandoned at interval ii, localized to the operation the
// place pass was working on when the poll struck.
func (c *Compilation) ctxError(ctx context.Context, ii int, lastFail placeFail) *CompileError {
	c.traceCancel(ii)
	kind := KindCancelled
	verb := "cancelled"
	if ctx.Err() == context.DeadlineExceeded {
		kind = KindDeadlineExceeded
		verb = "deadline exceeded"
	}
	ce := compileErrorf(PassPlace, "%s on %s: compilation %s at II %d",
		c.Kernel.Name, c.Machine.Name, verb, ii)
	ce.Kind = kind
	ce.II = ii
	if lastFail.name != "" && lastFail.ii == ii {
		ce.Op = lastFail.op
		ce.Line = lastFail.line
	}
	return ce
}

// scheduleFailure builds the structured does-not-schedule report,
// localized to the last operation the place pass gave up on.
func scheduleFailure(c *Compilation, agg Stats, lastFail placeFail) *CompileError {
	ce := compileErrorf(PassPlace,
		"%s does not schedule on %s within II ≤ %d (%d attempts)",
		c.Kernel.Name, c.Machine.Name, c.MaxII, agg.Attempts)
	if lastFail.name != "" {
		ce.Op = lastFail.op
		ce.Line = lastFail.line
		c.diag(PassPlace, lastFail.op, "II %d: %s rejected every placement in the %v block",
			lastFail.ii, lastFail.name, lastFail.block)
	}
	return ce
}

// placeFail records where the place pass last gave up, for the
// structured failure report.
type placeFail struct {
	ii    int
	block ir.BlockKind
	op    ir.OpID
	name  string
	line  int
}

// deriveMaxII is the default cap on the initiation-interval search: a
// generous bound above the resource/recurrence minimum.
func deriveMaxII(k *ir.Kernel, minII int) int {
	return minII + 8*len(k.Loop) + 64
}

// checkUnits verifies that every operation — preamble included — has at
// least one functional unit able to execute it. ResMII performs this
// check for loop operations only, so a preamble-only class with no unit
// used to slip through and either spin the interval search to
// exhaustion or, under Options.TwoPhase, panic preassign with a
// divide by zero on the empty unit list.
func checkUnits(k *ir.Kernel, m *machine.Machine) error {
	for _, op := range k.Ops {
		if cls := op.Opcode.Class(); len(m.UnitsFor(cls)) == 0 {
			return &CompileError{
				Kind: KindInvalidInput,
				Pass: PassLower,
				Reason: fmt.Sprintf("no unit on %s executes %v (op %d %s)",
					m.Name, cls, op.ID, op.Name),
				Op:   op.ID,
				Line: op.Line,
			}
		}
	}
	return nil
}

// tryII attempts to schedule the kernel at exactly one initiation
// interval by running the per-interval passes over a fresh engine,
// accumulating cross-interval counters into agg and per-pass stats into
// ps (nil to skip). It returns the successful engine, or nil plus
// whether the attempt was abandoned by the cancellation hook rather
// than proven infeasible; a non-nil error is an internal (recovered
// panic) failure that must stop the whole interval search. fail, when
// non-nil, records where placement stopped. memo, when non-nil, is the
// shared infeasibility memo consulted and grown by the §4.4 solver.
func tryII(k *ir.Kernel, m *machine.Machine, g *depgraph.Graph, opts Options, ii int, cancel func() bool, memo *permMemo, agg *Stats, ps *PassStats, fail *placeFail) (*engine, bool, error) {
	if len(k.Loop) > 0 && !g.RecMIIFeasible(ii) {
		return nil, false, nil
	}
	agg.IIsTried++
	ac := &Compilation{Kernel: k, Machine: m, Opts: opts, Graph: g, II: ii, clock: new(passClock)}
	e := newEngine(k, m, g, opts, ii)
	e.cancel = cancel
	e.memo = memo
	e.clock = ac.clock
	ac.eng = e
	e.traceIIBegin()
	var failed error
	for _, p := range attemptPasses(opts) {
		if err := ac.runPass(p); err != nil {
			failed = err
			break
		}
	}
	e.traceIIEnd(failed == nil)
	if ps != nil {
		ps.Merge(ac.clock.stats)
	}
	if failed == nil {
		return e, false, nil
	}
	// The loop was placed but a cross-block communication could not
	// complete in the preamble: the §4.5 backtracking case (the
	// already-scheduled block is reopened by restarting).
	if e.failBlock == ir.PreambleBlock && !e.aborted {
		agg.Backtracks++
	}
	agg.Attempts += e.stats.Attempts
	agg.AttemptFailures += e.stats.AttemptFailures
	agg.PermSteps += e.stats.PermSteps
	agg.MemoHits += e.stats.MemoHits
	if fail != nil && e.failOp != NoOp {
		*fail = placeFail{ii: ii, block: e.failBlock, op: e.failOp, name: e.opString(e.failOp)}
		if int(e.failOp) < len(k.Ops) {
			fail.line = k.Ops[e.failOp].Line
		}
	}
	if failed != errInfeasible {
		// A pass failed for a reason beyond interval infeasibility — a
		// recovered panic converted into a structured internal error.
		return nil, false, failed
	}
	return nil, e.aborted, nil
}

// scheduleBlock schedules one block's operations in priority order —
// the pre-pipeline entry point, kept for white-box tests that drive a
// single block directly; tryII runs the equivalent prioritize /
// preassign / place passes instead.
func (e *engine) scheduleBlock(block ir.BlockKind) bool {
	order := e.graph.PriorityOrder(block)
	if e.opts.CycleOrder {
		order = e.cycleOrder(block)
	}
	if e.opts.TwoPhase {
		e.preassign(order)
	}
	for _, id := range order {
		if e.cancelled() || !e.scheduleOp(id) {
			return false
		}
	}
	return true
}

// preassign binds each operation to one unit ahead of cycle scheduling
// (the §6 multi-phase baseline): class round-robin in priority order.
func (e *engine) preassign(order []ir.OpID) {
	if e.assigned == nil {
		e.assigned = make(map[ir.OpID]machine.FUID)
	}
	next := make(map[ir.Class]int)
	for _, id := range order {
		cls := e.ops[id].Opcode.Class()
		units := e.mach.UnitsFor(cls)
		if len(units) == 0 {
			// Unexecutable class (checkUnits rejects these up front);
			// leave the op unbound so scheduleOp fails cleanly instead
			// of dividing by zero here.
			continue
		}
		e.assigned[id] = units[next[cls]%len(units)]
		next[cls]++
	}
}

// cycleOrder is the §4.6 ablation ordering: earliest-possible cycle
// first (greedy per-cycle filling), heights only breaking ties.
func (e *engine) cycleOrder(block ir.BlockKind) []ir.OpID {
	src := e.kern.BlockOps(block)
	order := make([]ir.OpID, len(src))
	copy(order, src)
	sort.SliceStable(order, func(i, j int) bool {
		ai, aj := e.graph.ASAP(order[i]), e.graph.ASAP(order[j])
		if ai != aj {
			return ai < aj
		}
		return e.graph.Height(order[i]) > e.graph.Height(order[j])
	})
	return order
}

// scheduleOp realizes the Fig. 11 flow for one operation: first
// possible cycle, each available functional unit in communication-cost
// order, communication scheduling accepting or rejecting; on rejection
// the next unit, then the next cycle.
func (e *engine) scheduleOp(id ir.OpID) bool {
	lo, hi, ok := e.window(id)
	if !ok {
		return false
	}
	block := e.ops[id].Block
	scan := lo + e.scanLimit(block)
	if scan > hi {
		scan = hi
	}
	budget := e.opts.AttemptBudget
	if budget <= 0 {
		budget = attemptBudgetDefault
	}
	for cycle := lo; cycle <= scan; cycle++ {
		if e.cancelled() {
			return false
		}
		for _, fu := range e.fuCandidates(id, cycle) {
			if !e.fuFree(block, fu, cycle) {
				continue
			}
			if e.attempt(id, cycle, fu) {
				return true
			}
			if budget--; budget <= 0 {
				return false
			}
		}
	}
	return false
}

// scanLimit bounds how far past the earliest cycle an operation is
// delayed before the initiation interval is declared infeasible. In
// the loop, cycles past one full wrap of the modulo table revisit the
// same resources and only grow copy ranges, so a short tail past II
// suffices.
func (e *engine) scanLimit(block ir.BlockKind) int {
	if e.opts.ScanWindow > 0 {
		return e.opts.ScanWindow
	}
	if block == ir.LoopBlock {
		n := e.ii + 16
		if n < 24 {
			n = 24
		}
		return n
	}
	return 256
}

// fuCandidates returns the units able to execute op, ordered by the
// §4.6 heuristic: lowest communication cost first, then lightest
// current load, then unit id.
func (e *engine) fuCandidates(id ir.OpID, cycle int) []machine.FUID {
	if fu, ok := e.assigned[id]; ok {
		return []machine.FUID{fu}
	}
	units := e.mach.UnitsFor(e.ops[id].Opcode.Class())
	out := make([]machine.FUID, len(units))
	copy(out, units)
	type rank struct {
		cost float64
		dep  int
		load int
	}
	ranks := make(map[machine.FUID]rank, len(out))
	for _, fu := range out {
		r := rank{load: e.fuLoad[fu]}
		if !e.opts.NoCostHeuristic {
			r.cost = e.commCost(id, fu, cycle)
		}
		// Spread consumers away from congested input files: a unit
		// whose files already hold many deposits competes harder for
		// its single write ports.
		f := e.mach.FU(fu)
		for slot := 0; slot < f.NumInputs; slot++ {
			for _, rs := range e.mach.ReadStubs(fu, slot) {
				r.dep += e.depositLoad[rs.RF]
			}
		}
		ranks[fu] = r
	}
	sort.SliceStable(out, func(i, j int) bool {
		ri, rj := ranks[out[i]], ranks[out[j]]
		if ri.cost != rj.cost {
			return ri.cost < rj.cost
		}
		if ri.dep != rj.dep {
			return ri.dep < rj.dep
		}
		if ri.load != rj.load {
			return ri.load < rj.load
		}
		return out[i] < out[j]
	})
	return out
}
