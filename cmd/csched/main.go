// Command csched compiles a kernel for one of the paper's register-file
// architectures using communication scheduling and prints the schedule,
// route allocation, and statistics. It optionally runs the result on
// the cycle-accurate simulator.
//
// Usage:
//
//	csched -arch distributed -kernel FIR-FP -sim
//	csched -arch clustered4 path/to/kernel.kasm
//	csched -kernel DCT -passes
//	csched -kernel DCT -trace dct.json -util -stats-json -
//	csched -list
//
// Observability flags: -trace FILE exports the compilation (and, with
// -sim, the simulation) as Chrome trace-event JSON for Perfetto;
// -simtrace prints the simulator's per-cycle text log; -util prints the
// per-resource interconnect-occupancy heatmap; -stats-json FILE ("-"
// for stdout) dumps machine-readable statistics; -cpuprofile FILE and
// -memprofile FILE write pprof CPU and allocation profiles, with every
// sample labeled by the pipeline pass it fell in (pprof -tagfocus
// pass=place, etc.).
//
// Robustness flags: -timeout D bounds the whole compilation (Ctrl-C
// cancels it cooperatively too); -degrade retries a failed search down
// the graceful-degradation ladder, reporting which rung won; -faults
// SPEC arms the deterministic fault-injection plane (testing only).
//
// When compilation fails, csched exits non-zero and prints the pass
// pipeline's structured diagnostic: the failure kind (schedule,
// invalid-input, cancelled, deadline-exceeded, internal), the kernel,
// machine, failing pass, reason, and — for op-specific failures — the
// operation and kernel source line. Exit codes distinguish the
// failure: 1 schedule/other, 2 usage, 3 cancelled or deadline
// exceeded, 4 internal error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	commsched "repro"
	"repro/internal/daemon"
	"repro/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// printCompileError renders a pass-pipeline failure as a structured
// diagnostic instead of a bare error string.
func printCompileError(w io.Writer, ce *commsched.CompileError) {
	fmt.Fprintln(w, "csched: compilation failed")
	fmt.Fprintf(w, "  kind:    %s\n", ce.Kind)
	fmt.Fprintf(w, "  kernel:  %s\n", ce.Kernel)
	fmt.Fprintf(w, "  machine: %s\n", ce.Machine)
	fmt.Fprintf(w, "  pass:    %s\n", ce.Pass)
	fmt.Fprintf(w, "  reason:  %s\n", ce.Reason)
	if ce.II > 0 {
		fmt.Fprintf(w, "  II:      %d\n", ce.II)
	}
	if ce.Op != commsched.NoOp {
		fmt.Fprintf(w, "  op:      %d\n", ce.Op)
	}
	if ce.Line > 0 {
		fmt.Fprintf(w, "  line:    %d\n", ce.Line)
	}
	for _, d := range ce.Diags {
		fmt.Fprintf(w, "  note:    %s\n", d)
	}
}

// exitCode maps a compilation failure to the documented exit code. The
// mapping table lives in internal/daemon (errmap.go), shared with the
// HTTP server, so the CLI's exit codes and the daemon's statuses for
// the same failure can never drift apart.
func exitCode(err error) int { return daemon.ExitCode(err) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("csched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	arch := fs.String("arch", "distributed", "target architecture: central, clustered2, clustered4, distributed, paired, fig5")
	machineFile := fs.String("machine", "", "text machine description file (overrides -arch)")
	kernelName := fs.String("kernel", "", "built-in Table 1 kernel name (e.g. DCT, FIR-FP)")
	list := fs.Bool("list", false, "list built-in kernels and exit")
	sim := fs.Bool("sim", false, "simulate the schedule and validate (built-in kernels only)")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON of the compilation (and simulation with -sim) to FILE")
	simTrace := fs.Bool("simtrace", false, "with -sim: print the per-cycle execution trace")
	util := fs.Bool("util", false, "print the per-resource interconnect utilization heatmap")
	statsJSON := fs.String("stats-json", "", "write machine-readable schedule statistics to FILE (\"-\" for stdout)")
	dump := fs.Bool("dump", true, "print the full schedule")
	asm := fs.Bool("asm", false, "print VLIW instruction words (per-cycle assembly)")
	timeline := fs.Int("timeline", 0, "print the expanded (pipelined) schedule for N loop iterations")
	passes := fs.Bool("passes", false, "print per-pass timing, work, and backtrack counters")
	cycleOrder := fs.Bool("cycle-order", false, "ablation: schedule in cycle order instead of operation order")
	noCost := fs.Bool("no-cost-heuristic", false, "ablation: disable the equation-1 unit-ordering heuristic")
	portfolio := fs.Int("portfolio", 0, "race the ablation portfolio over N workers (0 disables, -1 means GOMAXPROCS); the result is deterministic for any N")
	timeout := fs.Duration("timeout", 0, "bound the whole compilation; on expiry csched exits 3 with a structured deadline-exceeded report")
	degrade := fs.Bool("degrade", false, "on schedule-search failure, retry down the graceful-degradation ladder (cheaper budgets, relaxed interval cap, greedy pipeline)")
	faults := fs.String("faults", "", "arm the deterministic fault-injection plane (testing), e.g. \"seed=7;site=pass,label=place,action=panic\"")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to FILE (samples carry a \"pass\" label)")
	memprofile := fs.String("memprofile", "", "write a pprof allocation profile to FILE on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "csched:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "csched:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeMemProfile(*memprofile); err != nil {
				fmt.Fprintln(stderr, "csched:", err)
			}
		}()
	}

	if *list {
		for _, s := range commsched.Kernels() {
			fmt.Fprintf(stdout, "%-20s %s\n", s.Name, s.Desc)
		}
		return 0
	}

	var m *commsched.Machine
	if *machineFile != "" {
		src, err := os.ReadFile(*machineFile)
		if err != nil {
			fmt.Fprintln(stderr, "csched:", err)
			return 1
		}
		m, err = commsched.ParseMachine(string(src))
		if err != nil {
			fmt.Fprintln(stderr, "csched:", err)
			return 1
		}
	} else if m = commsched.MachineByName(*arch); m == nil {
		fmt.Fprintf(stderr, "csched: unknown architecture %q\n", *arch)
		return 2
	}

	opts := commsched.Options{CycleOrder: *cycleOrder, NoCostHeuristic: *noCost}
	// -trace streams events into the file as they arrive: a traced
	// hard kernel emits millions of events, too many to hold in memory.
	var (
		tw *obs.ChromeWriter
		tf *traceFile
	)
	if *trace != "" {
		var err error
		if tf, err = createTraceFile(*trace); err != nil {
			fmt.Fprintln(stderr, "csched:", err)
			return 1
		}
		defer tf.discard()
		tw = obs.NewChromeWriter(tf)
		opts.Tracer = tw
	}
	if *degrade {
		opts.Degrade = commsched.DefaultDegradeLadder()
	}
	if *faults != "" {
		plane, perr := commsched.ParseFaultSpec(*faults)
		if perr != nil {
			fmt.Fprintln(stderr, "csched: -faults:", perr)
			return 2
		}
		opts.Faults = plane
	}
	if *timeout > 0 {
		tctx, tcancel := context.WithTimeout(ctx, *timeout)
		defer tcancel()
		ctx = tctx
	}

	var (
		k    *commsched.Kernel
		spec *commsched.KernelSpec
		err  error
	)
	switch {
	case *kernelName == "fig4":
		// The §2 motivating example is not a Table 1 kernel but is the
		// canonical small trace: -kernel fig4 -arch fig5 reproduces Fig. 7.
		k = commsched.MotivatingKernel()
	case *kernelName != "":
		spec = commsched.KernelByName(*kernelName)
		if spec == nil {
			fmt.Fprintf(stderr, "csched: unknown kernel %q (try -list)\n", *kernelName)
			return 2
		}
		k, err = spec.Kernel()
	case fs.NArg() == 1:
		var src []byte
		src, err = os.ReadFile(fs.Arg(0))
		if err == nil {
			k, err = commsched.ParseKernel(string(src))
		}
	default:
		fmt.Fprintln(stderr, "csched: need -kernel NAME or a kernel source file (or -list)")
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "csched:", err)
		return 1
	}

	var (
		s       *commsched.Schedule
		pfStats *commsched.PortfolioStats
	)
	if *portfolio != 0 {
		s, pfStats, err = commsched.CompilePortfolio(ctx, k, m, opts, *portfolio)
	} else {
		s, err = commsched.CompileContext(ctx, k, m, opts)
	}
	if err != nil {
		var ce *commsched.CompileError
		if errors.As(err, &ce) {
			printCompileError(stderr, ce)
		} else {
			fmt.Fprintln(stderr, "csched:", err)
		}
		return exitCode(err)
	}
	if s.Degraded != "" {
		fmt.Fprintf(stdout, "degraded: schedule produced by fallback rung %q\n", s.Degraded)
	}
	if err := commsched.Verify(s); err != nil {
		fmt.Fprintln(stderr, "csched: verification failed:", err)
		return 1
	}

	fmt.Fprintf(stdout, "kernel %s on %s: II=%d, preamble=%d cycles, %d copies inserted\n",
		k.Name, m.Name, s.II, s.PreambleLen, len(s.Ops)-len(k.Ops))
	fmt.Fprintf(stdout, "scheduler: %d attempts (%d rejected), %d permutation steps, %d backtracks\n",
		s.Stats.Attempts, s.Stats.AttemptFailures, s.Stats.PermSteps, s.Stats.Backtracks)
	if pfStats != nil {
		fmt.Fprintln(stdout, pfStats)
	}
	if *passes {
		fmt.Fprintf(stdout, "pipeline: %s\n", opts.Pipeline())
		fmt.Fprintln(stdout, s.Passes)
		fmt.Fprintf(stdout, "search: %d intervals tried, %d backtracks\n",
			s.Stats.IIsTried, s.Stats.Backtracks)
		for _, d := range s.Diags {
			fmt.Fprintf(stdout, "note: %s\n", d)
		}
	}
	if *dump {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, s.Dump())
	}
	if *asm {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, s.Assembly())
	}
	if *timeline > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, s.FormatTimeline(*timeline))
	}
	if *util {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, s.InterconnectUtilization())
	}

	if *sim {
		if spec == nil {
			fmt.Fprintln(stderr, "csched: -sim needs a built-in kernel (reference inputs)")
			return 2
		}
		cfg := commsched.SimConfig{InitMem: spec.Init()}
		if *simTrace {
			cfg.Trace = stdout
		}
		if tw != nil {
			// Simulation events land in the same stream, after the
			// compilation's, so one exported trace covers both.
			cfg.Tracer = tw
		}
		res, err := commsched.Simulate(s, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "csched: simulation failed:", err)
			return 1
		}
		if err := spec.Check(res.Mem); err != nil {
			fmt.Fprintln(stderr, "csched: output check failed:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nsimulated %d iterations in %d cycles: outputs match the reference "+
			"(%d operand reads, %d register writes, %d bus transfers)\n",
			res.IterationsRun, res.Cycles, res.Reads, res.Writes, res.BusTransfers)
	}

	if tw != nil {
		err := tw.Close()
		if err == nil {
			err = tf.commit()
		}
		if err != nil {
			fmt.Fprintln(stderr, "csched:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nwrote %d trace events to %s\n", tw.Len(), *trace)
	}
	if *statsJSON != "" {
		if err := writeStats(*statsJSON, stdout, k, s, pfStats); err != nil {
			fmt.Fprintln(stderr, "csched:", err)
			return 1
		}
	}
	return 0
}

// writeMemProfile dumps the allocation profile (after a GC, so the
// heap numbers reflect live objects, while alloc_space still covers
// everything allocated since start).
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceFile is where -trace streams: a temporary file beside the
// target, renamed over it once the run succeeds, so a failed run leaves
// no trace file. A target that exists and is not a regular file
// (/dev/null, a pipe) is written directly.
type traceFile struct {
	*os.File
	target string // rename target; "" once committed or written directly
}

func createTraceFile(path string) (*traceFile, error) {
	if fi, err := os.Stat(path); err == nil && !fi.Mode().IsRegular() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		return &traceFile{File: f}, err
	}
	f, err := os.Create(path + ".tmp")
	return &traceFile{File: f, target: path}, err
}

// commit closes the file and moves it into place.
func (tf *traceFile) commit() error {
	if err := tf.Close(); err != nil {
		return err
	}
	if tf.target == "" {
		return nil
	}
	err := os.Rename(tf.Name(), tf.target)
	tf.target = ""
	return err
}

// discard removes an uncommitted temporary file.
func (tf *traceFile) discard() {
	tf.Close()
	if tf.target != "" {
		os.Remove(tf.Name())
	}
}

// writeStats dumps machine-readable schedule statistics; path "-"
// means stdout.
func writeStats(path string, stdout io.Writer, k *commsched.Kernel, s *commsched.Schedule, pf *commsched.PortfolioStats) error {
	out := struct {
		Kernel      string                       `json:"kernel"`
		Machine     string                       `json:"machine"`
		II          int                          `json:"ii"`
		Preamble    int                          `json:"preamble"`
		LoopSpan    int                          `json:"loop_span"`
		Copies      int                          `json:"copies"`
		Degraded    string                       `json:"degraded,omitempty"`
		Scheduler   commsched.SchedulerStats     `json:"scheduler"`
		Passes      commsched.PassStats          `json:"passes"`
		Utilization *commsched.UtilizationReport `json:"utilization"`
		Portfolio   *commsched.PortfolioStats    `json:"portfolio,omitempty"`
	}{
		Kernel:      k.Name,
		Machine:     s.Machine.Name,
		II:          s.II,
		Preamble:    s.PreambleLen,
		LoopSpan:    s.LoopSpan,
		Copies:      len(s.Ops) - len(k.Ops),
		Degraded:    s.Degraded,
		Scheduler:   s.Stats,
		Passes:      s.Passes,
		Utilization: s.InterconnectUtilization(),
		Portfolio:   pf,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
