// Package commsched is a reproduction of "Communication Scheduling"
// (Mattson, Dally, Rixner, Kapasi, Owens — ASPLOS 2000): a VLIW
// scheduler for shared-interconnect register-file architectures, the
// four register-file organizations the paper evaluates, the ten media
// kernels of its Table 1, a cycle-accurate simulator that validates
// scheduled code end to end, and the VLSI cost model behind its
// area/power/delay comparisons.
//
// The quickest path from source to schedule:
//
//	m := commsched.Distributed()
//	sched, err := commsched.CompileSource(src, m, commsched.Options{})
//	fmt.Println(sched.Dump())
//
// where src is a kernel in the package's small C-like kernel language
// (see internal/kasm). Schedules can be executed on the cycle-accurate
// machine model with Simulate, and the paper's experiments regenerated
// with Evaluate / CostReport (or the cmd/paperfigs tool).
package commsched

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/kasm"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/vliwsim"
	"repro/internal/vlsi"
)

// Re-exported core types. The scheduler's behavior is tuned through
// Options; the result is a Schedule carrying placements, routes, and
// instrumentation.
type (
	// Machine is a datapath description: functional units, register
	// files, ports, and buses with explicit connectivity.
	Machine = machine.Machine
	// MachineBuilder assembles custom machines for architecture
	// exploration ("communication scheduling ... can be used to explore
	// novel register file architectures without implementing a custom
	// compiler for each architecture", §8).
	MachineBuilder = machine.Builder
	// Options tunes the scheduler (II bounds, permutation budget,
	// ablation switches).
	Options = core.Options
	// Schedule is a finished schedule with all interconnect allocated.
	Schedule = core.Schedule
	// PortfolioOptions configures CompilePortfolio's worker pool and
	// racing lineup.
	PortfolioOptions = core.PortfolioOptions
	// PortfolioStats instruments a portfolio run: the winner, and per
	// variant its pipeline shape, intervals tried, best interval,
	// copies and wall time.
	PortfolioStats = core.PortfolioStats
	// Variant is one racing configuration of a portfolio.
	Variant = core.Variant
	// PassStat and PassStats instrument the compiler's passes: runs,
	// work items, failures, and self wall time per named pass.
	PassStat  = core.PassStat
	PassStats = core.PassStats
	// SchedulerStats counts the scheduler's work on one compilation
	// (Schedule.Stats): placements tried, permutation steps, copies,
	// backtracks, intervals attempted.
	SchedulerStats = core.Stats
	// CompileError is the structured failure report of the pass
	// pipeline: kernel, machine, failing pass, reason, and — for
	// op-specific failures — the operation and source line. Its Kind
	// classifies the failure (see ErrorKind).
	CompileError = core.CompileError
	// ErrorKind classifies a CompileError: schedule-search failure,
	// invalid input, cancellation, deadline, or recovered internal
	// panic (DESIGN.md §4.10).
	ErrorKind = core.ErrorKind
	// DegradeLadder and DegradeRung configure the graceful-degradation
	// ladder CompileContext walks after a schedule-search failure.
	DegradeLadder = core.DegradeLadder
	DegradeRung   = core.DegradeRung
	// FaultPlane is the deterministic fault-injection plane
	// (internal/faultinject) armed through Options.Faults for
	// robustness testing; FaultRule is one injection rule.
	FaultPlane = faultinject.Plane
	FaultRule  = faultinject.Rule
	// Diag is one structured diagnostic emitted by a compiler pass.
	Diag = core.Diag
	// Kernel is the scheduler's input program form.
	Kernel = ir.Kernel
	// KernelSpec is one of the built-in Table 1 evaluation kernels.
	KernelSpec = kernels.Spec
	// SimConfig configures cycle-accurate simulation.
	SimConfig = vliwsim.Config
	// SimResult is the outcome of a simulation.
	SimResult = vliwsim.Result
	// CostParams are the VLSI model constants.
	CostParams = vlsi.Params
	// Cost is an area/power/delay estimate for one machine.
	Cost = vlsi.Cost
)

// Observability surface: the scheduler, portfolio racer, and simulator
// emit structured events (internal/obs) at every decision point when
// Options.Tracer / SimConfig.Tracer is set; a nil tracer — the default
// — costs nothing. Streams are stamped with a logical clock, so traces
// are bit-identical across runs and worker counts.
type (
	// Tracer consumes structured compilation/simulation events.
	Tracer = obs.Tracer
	// TraceEvent is one structured event.
	TraceEvent = obs.Event
	// TraceEventKind enumerates the event taxonomy (see DESIGN.md).
	TraceEventKind = obs.Kind
	// TraceRecorder is an in-memory Tracer stamping events with a
	// deterministic logical clock.
	TraceRecorder = obs.Recorder
	// UtilizationReport is a schedule's per-resource interconnect
	// occupancy (Schedule.InterconnectUtilization).
	UtilizationReport = core.UtilizationReport
	// ResourceUtil is one resource row of a UtilizationReport.
	ResourceUtil = core.ResourceUtil
)

// NewTraceRecorder returns an empty trace recorder to pass as
// Options.Tracer or SimConfig.Tracer.
func NewTraceRecorder() *TraceRecorder { return obs.NewRecorder() }

// MultiTracer fans events out to several tracers; nils are dropped and
// the result is nil when none remain.
func MultiTracer(tracers ...Tracer) Tracer { return obs.Multi(tracers...) }

// WriteChromeTrace exports a recorded event stream in the Chrome
// trace-event JSON format (load in Perfetto / chrome://tracing).
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return obs.WriteChromeTrace(w, events)
}

// ValidateChromeTrace checks that data is a well-formed Chrome
// trace-event JSON document with balanced spans and monotone
// timestamps.
func ValidateChromeTrace(data []byte) error { return obs.ValidateChromeTrace(data) }

// Machine-description vocabulary for custom architectures.
type (
	// FUKind is a functional unit's hardware flavor.
	FUKind = machine.FUKind
	// FUID, RFID, BusID, RPID, and WPID identify machine resources.
	FUID  = machine.FUID
	RFID  = machine.RFID
	BusID = machine.BusID
	RPID  = machine.RPID
	WPID  = machine.WPID
)

// NoOp marks a diagnostic not tied to a particular operation.
const NoOp = core.NoOp

// CompileError kinds.
const (
	ErrSchedule         = core.KindSchedule
	ErrInvalidInput     = core.KindInvalidInput
	ErrCancelled        = core.KindCancelled
	ErrDeadlineExceeded = core.KindDeadlineExceeded
	ErrInternal         = core.KindInternal
)

// Fault-injection sites and actions for FaultRule.
const (
	FaultSitePass      = faultinject.SitePass
	FaultSiteSolver    = faultinject.SiteSolver
	FaultSitePortfolio = faultinject.SitePortfolio
	FaultActionPanic   = faultinject.Panic
	FaultActionExhaust = faultinject.Exhaust
	FaultActionDelay   = faultinject.Delay
)

// Functional-unit kinds.
const (
	Adder      = machine.Adder
	Multiplier = machine.Multiplier
	Divider    = machine.Divider
	PermUnit   = machine.PermUnit
	Scratchpad = machine.Scratchpad
	LoadStore  = machine.LoadStore
	CopyUnit   = machine.CopyUnit
)

// Central builds the paper's central register file architecture
// (Fig. 1/25): one file, dedicated ports and buses per unit.
func Central() *Machine { return machine.Central() }

// Clustered2 builds the two-cluster architecture of Fig. 2/26.
func Clustered2() *Machine { return machine.Clustered(2) }

// Clustered4 builds the four-cluster architecture of Fig. 2/26.
func Clustered4() *Machine { return machine.Clustered(4) }

// ClusteredMachine is Clustered2/Clustered4 for a dynamic cluster
// count, returning an error instead of panicking on unsupported counts
// — the form to call with untrusted input.
func ClusteredMachine(k int) (*Machine, error) { return machine.ClusteredChecked(k) }

// Distributed builds the distributed register file architecture of
// Fig. 3/27: per-input files with single shared write ports fed by ten
// global buses.
func Distributed() *Machine { return machine.Distributed() }

// Fig5Machine builds the §2 motivating-example machine.
func Fig5Machine() *Machine { return machine.MotivatingExample() }

// Paired is a register-file organization beyond the paper's four (the
// §8 exploration): adjacent unit pairs share two-read-port,
// two-write-port input files, halving the distributed machine's file
// count. On the Table 1 suite it reaches central parity on eight of
// ten kernels.
func Paired() *Machine { return machine.Paired() }

// NewMachineBuilder starts a custom machine description.
func NewMachineBuilder(name string) *MachineBuilder { return machine.NewBuilder(name) }

// ParseMachine builds a machine from its text description (see
// internal/machine's text format: fu/rf/bus/rport/wport/connect
// directives), letting novel architectures be explored without Go code.
func ParseMachine(src string) (*Machine, error) { return machine.ParseText(src) }

// FormatMachine renders a machine in the text description format;
// ParseMachine reconstructs an equivalent machine from it.
func FormatMachine(m *Machine) string { return m.FormatText() }

// Scaled machines for the §8 cost-scaling projection ("For an
// architecture with forty-eight functional units, a distributed
// register file architecture would require 12% as much area and 9% as
// much power as a clustered register file architecture with four
// clusters").
func ScaledCentral(units int) *Machine { return machine.ScaledCentral(units) }

// ScaledClustered builds a k-cluster machine with the given unit count
// for cost scaling studies.
func ScaledClustered(units, k int) *Machine { return machine.ScaledClustered(units, k) }

// ScaledDistributed builds a distributed machine with the given unit
// count for cost scaling studies.
func ScaledDistributed(units int) *Machine { return machine.ScaledDistributed(units) }

// Architectures returns the paper's four machines in evaluation order.
func Architectures() []*Machine {
	return []*Machine{Central(), Clustered2(), Clustered4(), Distributed()}
}

// MachineByName returns a catalog machine by name — the paper's four,
// the Fig. 5 motivating-example machine ("fig5"), or the §8 "paired"
// exploration — or nil for unknown names.
func MachineByName(name string) *Machine { return machine.ByName(name) }

// ParseKernel compiles kernel-language source to the IR without
// scheduling it.
func ParseKernel(src string) (*Kernel, error) { return kasm.Compile(src) }

// Compile schedules a kernel onto a machine using communication
// scheduling: the loop is software pipelined at the smallest feasible
// initiation interval with every communication assigned a route.
func Compile(k *Kernel, m *Machine, opts Options) (*Schedule, error) {
	return core.Compile(k, m, opts)
}

// CompileContext is Compile observing a context: cancellation and
// deadlines propagate into the scheduler's hot loops and surface as a
// structured CompileError of kind ErrCancelled or ErrDeadlineExceeded
// (errors.Is-compatible with context.Canceled/DeadlineExceeded). When
// Options.Degrade is set, a schedule-search failure walks the
// graceful-degradation ladder; a schedule won by a fallback rung names
// it in Schedule.Degraded.
func CompileContext(ctx context.Context, k *Kernel, m *Machine, opts Options) (*Schedule, error) {
	return core.CompileContext(ctx, k, m, opts)
}

// DefaultDegradeLadder returns the stock three-rung degradation ladder
// (shrunk search budgets, a relaxed interval cap, then the cheapest
// greedy pipeline) to set as Options.Degrade.
func DefaultDegradeLadder() *DegradeLadder { return core.DefaultDegradeLadder() }

// NewFaultPlane builds a deterministic fault-injection plane from
// seed-derived rules, to arm through Options.Faults in robustness
// tests.
func NewFaultPlane(seed int64, rules ...FaultRule) *FaultPlane {
	return faultinject.New(seed, rules...)
}

// ParseFaultSpec parses the textual fault-plane format used by
// csched -faults (e.g. "seed=7;site=pass,label=place,action=panic").
func ParseFaultSpec(spec string) (*FaultPlane, error) { return faultinject.ParseSpec(spec) }

// CompilePortfolio schedules a kernel by racing a portfolio of
// scheduler configurations (the §4.6 ablation variants) across a
// bounded pool of workers: at each initiation interval in turn, from
// the lower bound up, every variant's attempt runs to completion, and
// the first interval where any variant schedules wins. The result is
// deterministic — best II, then fewest copies, then lowest variant
// index — so parallel runs are repeatable regardless of worker count;
// only the returned PortfolioStats timings vary. opts.Degrade degrades
// a failed race as it degrades Compile. workers ≤ 0 means GOMAXPROCS.
func CompilePortfolio(ctx context.Context, k *Kernel, m *Machine, opts Options, workers int) (*Schedule, *PortfolioStats, error) {
	return core.CompilePortfolio(ctx, k, m, opts, core.PortfolioOptions{Workers: workers})
}

// DefaultVariants returns the standard portfolio lineup derived from a
// base configuration: the base plus its four ablation flips.
func DefaultVariants(base Options) []Variant { return core.DefaultVariants(base) }

// CompileSource parses kernel-language source and schedules it.
func CompileSource(src string, m *Machine, opts Options) (*Schedule, error) {
	k, err := kasm.Compile(src)
	if err != nil {
		return nil, err
	}
	return core.Compile(k, m, opts)
}

// Verify re-checks a schedule's structural invariants (placements,
// dependences, routes, §4.2 conflict rules) with bookkeeping
// independent of the scheduler.
func Verify(s *Schedule) error { return core.VerifySchedule(s) }

// Simulate executes a schedule cycle by cycle on the machine model,
// checking every port, bus, and unit constraint dynamically and
// computing real values.
func Simulate(s *Schedule, cfg SimConfig) (*SimResult, error) { return vliwsim.Run(s, cfg) }

// Kernels returns the ten Table 1 evaluation kernels.
func Kernels() []*KernelSpec { return kernels.All() }

// KernelByName returns a Table 1 kernel by name, or nil.
func KernelByName(name string) *KernelSpec { return kernels.ByName(name) }

// MotivatingKernel returns the paper's Fig. 4 code fragment as IR: a
// load and two adds feeding two dependent adds (plus stores so the
// simulator can validate results). Scheduling it on Fig5Machine
// reproduces the shared-interconnect contention of §2 and the
// copy-completed schedule of Fig. 7.
func MotivatingKernel() *Kernel { return kernels.Motivating() }

// AnalyzeCost evaluates the register-file VLSI model for a machine.
func AnalyzeCost(m *Machine, p CostParams) Cost { return vlsi.Analyze(m, p) }

// DefaultCostParams returns the calibrated model constants.
func DefaultCostParams() CostParams { return vlsi.DefaultParams() }

// CostReport renders the Figs. 25–27 normalized area/power/delay bars
// for the given machines (first entry = 1.0 baseline).
func CostReport(ms []*Machine) string { return vlsi.Report(ms) }
