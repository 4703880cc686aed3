package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/depgraph"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
)

// This file is the pass-pipeline spine of the compiler. Compile used to
// be one monolithic attempt loop; it is now a sequence of named passes
// over a shared *Compilation context, driven by a manager that records
// per-pass wall time, work and failure counters, and structured
// diagnostics:
//
//	lower → [ per candidate II: prioritize → (preassign) → place ] → regalloc → verify
//
// The close-comms and insert-copies stages run inside place (they are
// invoked per tentative operation placement, not once per interval) but
// are clocked as passes of their own: the compilation's obs.Clock is a
// stack, so each nested run's self time is its own, and `csched
// -passes` shows where scheduling time actually goes. Pass
// decomposition changes no decisions: the pipeline emits bit-identical
// schedules to the pre-pipeline compiler (pinned by the differential
// goldens under internal/kernels/testdata/schedules).

// Pass names, in canonical pipeline order.
const (
	PassOptions      = "options" // Options.Validate diagnostics
	PassLower        = "lower"
	PassPrioritize   = "prioritize"
	PassPreassign    = "preassign"
	PassPlace        = "place"
	PassCloseComms   = "close-comms"
	PassInsertCopies = "insert-copies"
	PassRegalloc     = "regalloc"
	PassVerify       = "verify"
)

// passRank orders pass stats canonically for reports.
var passRank = map[string]int{
	PassOptions:      0,
	PassLower:        1,
	PassPrioritize:   2,
	PassPreassign:    3,
	PassPlace:        4,
	PassCloseComms:   5,
	PassInsertCopies: 6,
	PassRegalloc:     7,
	PassVerify:       8,
}

// Pass is one named stage of the pipeline. Run mutates the shared
// Compilation; a non-nil error stops the pipeline (for the per-interval
// passes it fails only the current interval attempt).
type Pass interface {
	Name() string
	Run(c *Compilation) error
}

// Compilation is the context shared by every pass: the inputs, the
// products of earlier passes, and the instrumentation. Compile creates
// one per call; each initiation-interval attempt additionally gets a
// lightweight per-attempt Compilation wrapping its engine, pushing into
// the clock the attempt is handed.
type Compilation struct {
	Kernel  *ir.Kernel
	Machine *machine.Machine
	Opts    Options

	// Products of the lower pass.
	Graph *depgraph.Graph
	MinII int
	MaxII int

	// II is the initiation interval under trial (attempt contexts only).
	II int

	Diags []Diag

	eng   *engine
	sched *Schedule
	clock *obs.Clock
	// cells holds the pass stats the portfolio race's cells clocked on
	// private clocks; passStats folds them into the compilation's own.
	cells PassStats
}

// runPass drives one pass as a clocked, traced stage, counting a
// failure when it errors. The pass name is attached as a pprof label,
// so CPU and allocation profiles (csched -cpuprofile / -memprofile)
// attribute samples to pipeline stages.
//
// Every pass body runs under panic recovery: an invariant violation
// anywhere in the pass (the solver, copy insertion, buildSchedule's
// structural checks) is converted into a structured KindInternal
// CompileError carrying the pass, the operation in flight, and the
// recovered stack, so one bad kernel cannot take down a server or a
// portfolio race. The fault plane's pass site is probed here too: a
// firing Panic rule exercises exactly this recovery path, and a firing
// Exhaust rule fails the pass as if its search budget were spent.
func (c *Compilation) runPass(p Pass) error {
	var err error
	stage(c.clock, c.Opts.Tracer, p.Name(), c.II, func() bool {
		pprof.Do(context.Background(), pprof.Labels("pass", p.Name()), func(context.Context) {
			defer func() {
				if r := recover(); r != nil {
					err = c.recoverPass(p.Name(), r)
				}
			}()
			if c.Opts.Faults.Probe(faultinject.SitePass, p.Name()) {
				err = passExhausted(p.Name())
				return
			}
			err = p.Run(c)
		})
		return err == nil
	})
	return err
}

// passExhausted is the Exhaust fault action at the pass site: the
// per-interval passes fail the current interval attempt (the same
// shape a real budget exhaustion takes), other passes fail the
// compilation with a schedule-kind error.
func passExhausted(name string) error {
	switch name {
	case PassPrioritize, PassPreassign, PassPlace:
		return errInfeasible
	}
	return compileErrorf(name, "injected budget exhaustion in %s pass", name)
}

// recoverPass converts a recovered pass panic into the structured
// internal-error report: pass name, the operation the place pass was
// working on (when one was in flight), the interval under trial, and
// the recovered stack.
func (c *Compilation) recoverPass(pass string, r any) *CompileError {
	c.traceRecover(pass)
	ce := &CompileError{
		Kind:   KindInternal,
		Pass:   pass,
		Reason: fmt.Sprintf("internal error in %s pass: %v", pass, r),
		Op:     NoOp,
		II:     c.II,
		Stack:  string(debug.Stack()),
	}
	if e := c.eng; e != nil && e.failOp != NoOp {
		ce.Op = e.failOp
		if int(e.failOp) < len(c.Kernel.Ops) {
			ce.Line = c.Kernel.Ops[e.failOp].Line
		}
	}
	return ce
}

// PassStat instruments one pass: how often it ran, how many work items
// it processed (operations placed, communications closed, copies
// inserted — pass-specific), how often it failed, and its cumulative
// self wall time (nested stages are attributed to themselves, not their
// caller: place's Wall excludes the close-comms time spent under it).
type PassStat struct {
	Name  string
	Runs  int
	Steps int
	Fails int
	Wall  time.Duration
}

// PassStats aggregates per-pass counters across a whole compilation —
// every initiation-interval attempt, failed and winning alike.
type PassStats []PassStat

// Get returns the stat named, nil when the pass never ran. The pointer
// is into the slice: do not hold it across appends.
func (ps PassStats) Get(name string) *PassStat {
	for i := range ps {
		if ps[i].Name == name {
			return &ps[i]
		}
	}
	return nil
}

// Merge folds other into ps, summing matching passes.
func (ps *PassStats) Merge(other PassStats) {
	for _, st := range other {
		if mine := ps.Get(st.Name); mine != nil {
			mine.Runs += st.Runs
			mine.Steps += st.Steps
			mine.Fails += st.Fails
			mine.Wall += st.Wall
		} else {
			*ps = append(*ps, st)
		}
	}
}

// sortCanonical orders the stats in pipeline order.
func (ps PassStats) sortCanonical() {
	sort.SliceStable(ps, func(i, j int) bool {
		ri, iok := passRank[ps[i].Name]
		rj, jok := passRank[ps[j].Name]
		if iok != jok {
			return iok // known passes first
		}
		if ri != rj {
			return ri < rj
		}
		return ps[i].Name < ps[j].Name
	})
}

// String renders the per-pass table csched -passes prints.
func (ps PassStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s %6s %9s %6s %12s\n", "pass", "runs", "steps", "fails", "wall")
	for _, st := range ps {
		fmt.Fprintf(&b, "%-13s %6d %9d %6d %12v\n",
			st.Name, st.Runs, st.Steps, st.Fails, st.Wall.Round(time.Microsecond))
	}
	return strings.TrimRight(b.String(), "\n")
}

// passStats projects a clock's stages into canonically ordered
// PassStats.
func passStats(clk *obs.Clock) PassStats {
	ps := make(PassStats, 0, len(clk.Stages()))
	for _, st := range clk.Stages() {
		ps = append(ps, PassStat{Name: st.Name, Runs: st.Runs, Steps: st.Steps, Fails: st.Fails, Wall: st.Wall})
	}
	ps.sortCanonical()
	return ps
}

// passStats is the compilation's per-pass account: its own clock plus
// any cells the race folded in.
func (c *Compilation) passStats() PassStats {
	ps := passStats(c.clock)
	if len(c.cells) > 0 {
		ps.Merge(c.cells)
		ps.sortCanonical()
	}
	return ps
}

// lowerPass readies the kernel for scheduling: IR verification, the
// unit-coverage check, dependence-graph construction, and the interval
// bounds (ResMII below, the derived or user-set cap above).
type lowerPass struct{}

func (lowerPass) Name() string { return PassLower }

func (lowerPass) Run(c *Compilation) error {
	if err := c.Kernel.Verify(); err != nil {
		return err
	}
	if err := checkUnits(c.Kernel, c.Machine); err != nil {
		return err
	}
	c.Graph = depgraph.Build(c.Kernel, c.Machine)
	minII, err := depgraph.ResMII(c.Kernel, c.Machine)
	if err != nil {
		return err
	}
	c.MinII = minII
	c.MaxII = c.Opts.MaxII
	if c.MaxII == 0 {
		c.MaxII = deriveMaxII(c.Kernel, c.MinII)
	}
	c.clock.Step(PassLower, len(c.Kernel.Ops))
	if c.MaxII < c.MinII {
		// Inverted interval bounds: the user cap is below the
		// resource/recurrence floor, so no interval can be tried.
		return compileErrorf(PassLower,
			"%s does not schedule on %s within II ≤ %d: Options.MaxII is below the resource/recurrence bound %d (inverted interval bounds)",
			c.Kernel.Name, c.Machine.Name, c.MaxII, c.MinII)
	}
	c.diag(PassLower, NoOp, "%d ops (%d loop), interval search [%d, %d]",
		len(c.Kernel.Ops), len(c.Kernel.Loop), c.MinII, c.MaxII)
	return nil
}

// errInfeasible fails an interval attempt; the engine's failBlock and
// failOp say where placement stopped.
var errInfeasible = fmt.Errorf("core: interval infeasible")

// attemptPasses is the per-interval pipeline realized from the options:
// the preassign pass participates only in the §6 two-phase baseline
// configuration (Options.TwoPhase).
func attemptPasses(opts Options) []Pass {
	if opts.TwoPhase {
		return []Pass{prioritizePass{}, preassignPass{}, placePass{}}
	}
	return []Pass{prioritizePass{}, placePass{}}
}

// prioritizePass computes each block's scheduling order: the critical-
// path priority order of §4.6, or earliest-cycle order under the
// CycleOrder ablation. Orders depend only on the dependence graph, so
// both blocks are ordered up front.
type prioritizePass struct{}

func (prioritizePass) Name() string { return PassPrioritize }

func (prioritizePass) Run(c *Compilation) error {
	e := c.eng
	e.order = make(map[ir.BlockKind][]ir.OpID, 2)
	for _, block := range []ir.BlockKind{ir.LoopBlock, ir.PreambleBlock} {
		order := e.graph.PriorityOrder(block)
		if e.opts.CycleOrder {
			order = e.cycleOrder(block)
		}
		e.order[block] = order
		e.clock.Step(PassPrioritize, len(order))
	}
	return nil
}

// preassignPass binds every operation to one unit ahead of cycle
// scheduling (the §6 multi-phase baseline): class round-robin in
// priority order, per block.
type preassignPass struct{}

func (preassignPass) Name() string { return PassPreassign }

func (preassignPass) Run(c *Compilation) error {
	e := c.eng
	for _, block := range []ir.BlockKind{ir.LoopBlock, ir.PreambleBlock} {
		e.preassign(e.order[block])
		e.clock.Step(PassPreassign, len(e.order[block]))
	}
	return nil
}

// placePass runs the Fig. 11 unified assign-and-schedule loop over both
// blocks — the loop first (modulo scheduled at the candidate interval),
// then the preamble — with communication scheduling accepting or
// rejecting each tentative placement. A preamble failure after the loop
// placed is the §4.5 backtracking event; tryII counts it.
type placePass struct{}

func (placePass) Name() string { return PassPlace }

func (placePass) Run(c *Compilation) error {
	e := c.eng
	for _, block := range []ir.BlockKind{ir.LoopBlock, ir.PreambleBlock} {
		for _, id := range e.order[block] {
			// Record the operation in flight up front: on failure this is
			// the structured report's localization, and a recovered panic
			// mid-placement reads it for op context too.
			e.failBlock, e.failOp = block, id
			if e.cancelled() || !e.scheduleOp(id) {
				return errInfeasible
			}
			e.clock.Step(PassPlace, 1)
		}
	}
	return nil
}

// regallocPass freezes the winning engine into the final Schedule and
// computes the §7 implicit per-register-file demand with the register
// model in pressure.go, flagging files whose capacity the schedule
// exceeds. It reports overflows; it inserts no spill copies.
type regallocPass struct{}

func (regallocPass) Name() string { return PassRegalloc }

func (regallocPass) Run(c *Compilation) error {
	c.sched = c.eng.buildSchedule()
	c.sched.RegDemand = implicitDemand(c.sched)
	for _, rf := range c.Machine.RegFiles {
		if d := c.sched.RegDemand[rf.ID]; d > rf.NumRegs {
			c.diag(PassRegalloc, NoOp, "register file %s: implicit demand %d exceeds %d registers (spill post-pass needed)",
				rf.Name, d, rf.NumRegs)
		}
	}
	c.clock.Step(PassRegalloc, len(c.sched.RegDemand))
	return nil
}

// verifyPass re-derives the §4.2 rules and the structural invariants
// from the finished schedule through the shared rules engine — the
// independent check that the pipeline's bookkeeping never leaks into
// its output.
type verifyPass struct{}

func (verifyPass) Name() string { return PassVerify }

func (verifyPass) Run(c *Compilation) error {
	if err := VerifySchedule(c.sched); err != nil {
		return &CompileError{Pass: PassVerify, Reason: err.Error(), Op: NoOp}
	}
	c.clock.Step(PassVerify, len(c.sched.Routes))
	return nil
}

// Pipeline renders the pipeline shape the ablation switches select:
// which ordering the prioritize pass uses, whether the preassign pass
// runs, and which place-stage heuristics are active, e.g.
// "prioritize(cycle)→preassign→place[cost,regaware]".
func (o Options) Pipeline() string {
	s := "prioritize(priority)"
	if o.CycleOrder {
		s = "prioritize(cycle)"
	}
	if o.TwoPhase {
		s += "→preassign"
	}
	s += "→place"
	switch {
	case !o.NoCostHeuristic && o.RegisterAware:
		s += "[cost,regaware]"
	case !o.NoCostHeuristic:
		s += "[cost]"
	case o.RegisterAware:
		s += "[regaware]"
	}
	return s
}
