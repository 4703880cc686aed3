package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/ir"
	"repro/internal/kasm"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/vliwsim"
)

// passNames are the compiler passes the per-layer metrics report, in
// pipeline order.
var passNames = []string{
	core.PassLower, core.PassPrioritize, core.PassPreassign, core.PassPlace,
	core.PassCloseComms, core.PassInsertCopies, core.PassRegalloc, core.PassVerify,
}

// pairMetric names the per-pair compile-time row of a compile pair.
func pairMetric(k keySpec) string {
	return "pair." + strings.ReplaceAll(strings.ToLower(k.Kernel), " ", "_") + "." + k.Machine + ".compile_ms"
}

// compileAgg sums what the compiler reports about its own work over a
// set of compiles: Schedule.Passes and Schedule.Stats.
type compileAgg struct {
	rounds int // sets of compiles the sums cover; metrics are per set
	wall   time.Duration
	passes core.PassStats
	stats  core.Stats
}

func (a *compileAgg) add(s *core.Schedule, d time.Duration) {
	a.wall += d
	a.passes.Merge(s.Passes)
	a.stats.Attempts += s.Stats.Attempts
	a.stats.AttemptFailures += s.Stats.AttemptFailures
	a.stats.PermSteps += s.Stats.PermSteps
	a.stats.MemoHits += s.Stats.MemoHits
	a.stats.IIsTried += s.Stats.IIsTried
	a.stats.Backtracks += s.Stats.Backtracks
}

// coverage is the passes' summed self time over the compiles' wall
// time: what share of compile time the pass clock accounts for.
func (a *compileAgg) coverage() float64 {
	var self time.Duration
	for _, st := range a.passes {
		self += st.Wall
	}
	if a.wall <= 0 {
		return 0
	}
	return float64(self) / float64(a.wall)
}

func (a *compileAgg) report(r *report) {
	n := float64(max(a.rounds, 1))
	for _, p := range passNames {
		var st core.PassStat
		if got := a.passes.Get(p); got != nil {
			st = *got
		}
		r.set("core."+p+".self_ms", ms(st.Wall)/n)
		r.set("core."+p+".runs", float64(st.Runs)/n)
		r.set("core."+p+".steps", float64(st.Steps)/n)
		r.set("core."+p+".fails", float64(st.Fails)/n)
	}
	r.set("core.pass_coverage", a.coverage())
	s := a.stats
	r.set("core.search.attempts", float64(s.Attempts)/n)
	if s.Attempts > 0 {
		r.set("core.search.attempt_fail_ratio", float64(s.AttemptFailures)/float64(s.Attempts))
	}
	r.set("core.search.perm_steps", float64(s.PermSteps)/n)
	r.set("core.search.memo_hits", float64(s.MemoHits)/n)
	r.set("core.search.iis_tried", float64(s.IIsTried)/n)
	r.set("core.search.backtracks", float64(s.Backtracks)/n)
}

// simulate runs a schedule on the cycle-accurate simulator and checks
// the memory image against the kernel's reference implementation: the
// oracle for every schedule the benchmark counts. It adds the run to
// the vliwsim layer metrics.
func simulate(r *report, tr *tracer, req string, spec *kernels.Spec, s *core.Schedule) {
	r.attempted++
	var (
		res *vliwsim.Result
		err error
	)
	d := tr.timed("vliwsim.Run", req, 0, func() { res, err = vliwsim.Run(s, vliwsim.Config{InitMem: spec.Init()}) })
	if err == nil {
		err = spec.Check(res.Mem)
	}
	if err != nil {
		r.opFailed("simulate %s: %v", req, err)
		return
	}
	r.add("vliwsim.run_ms", ms(d))
	r.add("vliwsim.cycles_sum", float64(res.Cycles))
}

// layerCalls times from outside the calls a compile or a request makes
// before any scheduling, over the workload's own inputs: kasm.Compile
// per kernel, machine.ByName and Routes per machine, daemon.Key per key.
// It reports the median of each.
func layerCalls(r *report, tr *tracer, inputs []keySpec, reps int) error {
	var kernelNames, machineNames []string
	seen := map[string]bool{}
	for _, k := range inputs {
		if !seen["k:"+k.Kernel] {
			seen["k:"+k.Kernel] = true
			kernelNames = append(kernelNames, k.Kernel)
		}
		if !seen["m:"+k.Machine] {
			seen["m:"+k.Machine] = true
			machineNames = append(machineNames, k.Machine)
		}
	}
	var kasmMS, buildMS, routesMS, keyUS []float64
	for rep := 0; rep < reps; rep++ {
		ks := map[string]*ir.Kernel{}
		for _, name := range kernelNames {
			spec := kernels.ByName(name)
			var err error
			d := tr.timed("kasm.Compile", name, 0, func() { ks[name], err = kasm.Compile(spec.Source) })
			if err != nil {
				return fmt.Errorf("kasm %s: %w", name, err)
			}
			kasmMS = append(kasmMS, ms(d))
		}
		mach := map[string]*machine.Machine{}
		for _, name := range machineNames {
			d := tr.timed("machine.ByName", name, 0, func() { mach[name] = machine.ByName(name) })
			buildMS = append(buildMS, ms(d))
			d = tr.timed("machine.Routes", name, 0, func() { mach[name].Routes() })
			routesMS = append(routesMS, ms(d))
		}
		for _, k := range inputs {
			opts, err := k.coreOptions()
			if err != nil {
				return err
			}
			d := tr.timed("daemon.Key", k.String(), 0, func() { daemon.Key(ks[k.Kernel], mach[k.Machine], opts, k.Portfolio) })
			keyUS = append(keyUS, float64(d)/float64(time.Microsecond))
		}
	}
	r.set("kasm.compile_ms", median(kasmMS))
	r.set("machine.build_ms", median(buildMS))
	r.set("machine.routes_ms", median(routesMS))
	r.set("daemon.key_us", median(keyUS))
	return nil
}

// pairJob is one pair of a compile workload with its inputs, built once
// in set-up, and what its compiles produced.
type pairJob struct {
	key   keySpec
	spec  *kernels.Spec
	k     *ir.Kernel
	m     *machine.Machine
	fp    [32]byte // digest of the first schedule's Fingerprint
	sched *core.Schedule
}

// compilePhase is the outcome of the timed rounds of one phase.
type compilePhase struct {
	times    [][]float64 // per pair, CPU ms per round
	rounds   []float64   // CPU ms per round: its compiles' summed latency
	compiles int
	ok       int // compiles that succeeded within the latency limit
	alloc    uint64
	u0, u1   usage
	agg      compileAgg
}

func runCompile(w *workload, o runOpts, r *report) error {
	jobs := make([]*pairJob, len(w.Pairs))
	for i, k := range w.Pairs {
		spec := kernels.ByName(k.Kernel)
		if spec == nil || machine.ByName(k.Machine) == nil {
			return fmt.Errorf("pair %s: unknown kernel or machine", k)
		}
		jobs[i] = &pairJob{key: k, spec: spec}
	}

	// setUp lowers every kernel from kasm and builds every machine with its
	// routing index, as a compile driver must before it schedules. The
	// pairs compile what the first set-up built; later ones are timed and
	// dropped, so no compile meets a machine it has not warmed.
	var setup []float64
	setUp := func() error {
		start := threadCPU()
		ks := map[string]*ir.Kernel{}
		mach := map[string]*machine.Machine{}
		for _, j := range jobs {
			if ks[j.key.Kernel] == nil {
				k, err := kasm.Compile(j.spec.Source)
				if err != nil {
					return fmt.Errorf("kasm %s: %w", j.key.Kernel, err)
				}
				ks[j.key.Kernel] = k
			}
			if mach[j.key.Machine] == nil {
				m := machine.ByName(j.key.Machine)
				m.Routes()
				mach[j.key.Machine] = m
			}
			if j.k == nil {
				j.k, j.m = ks[j.key.Kernel], mach[j.key.Machine]
			}
		}
		setup = append(setup, (threadCPU() - start).Seconds())
		return nil
	}
	if err := setUp(); err != nil {
		return err
	}

	slo := time.Duration(w.SLOMS * float64(time.Millisecond))
	first := true
	// round compiles every pair once and checks each schedule against the
	// first round's.
	round := func(p *compilePhase, tr *tracer, no int) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var total time.Duration
		for i, j := range jobs {
			req := fmt.Sprintf("r%d/%s", no, j.key)
			var err error
			// A compile with default options runs on this goroutine, so its
			// latency is taken from the thread's CPU clock; the wall time
			// feeds the spans and the pass coverage, whose pass clocks are
			// wall clocks.
			c0, t0 := threadCPU(), time.Now()
			j.sched, err = core.Compile(j.k, j.m, core.Options{})
			d, c := time.Since(t0), threadCPU()-c0
			tr.record("core.Compile", req, 0, t0, t0.Add(d))
			total += c
			r.attempted++
			if p != nil {
				p.compiles++
				p.times[i] = append(p.times[i], ms(c))
			}
			if err != nil {
				j.sched = nil
				r.opFailed("compile %s: %v", req, err)
				continue
			}
			if p != nil {
				p.agg.add(j.sched, d)
				if c <= slo {
					p.ok++
				}
			}
		}
		runtime.ReadMemStats(&m1)
		if p != nil {
			p.alloc += m1.TotalAlloc - m0.TotalAlloc
			p.rounds = append(p.rounds, ms(total))
			p.agg.rounds++
		}
		for _, j := range jobs {
			if j.sched == nil {
				continue
			}
			fp := sha256.Sum256([]byte(j.sched.Fingerprint()))
			if first {
				j.fp = fp
			} else if fp != j.fp {
				r.opFailed("%s: schedule differs from the first round's", j.key)
			}
		}
		first = false
	}

	// One untimed warm-up round fills the heap and the caches.
	round(nil, nil, 0)
	rounds := 1
	// The host's speed drifts over seconds, so the set-ups are paced
	// evenly over the run, between rounds, about SetupReps in all, rather
	// than made in one burst at the start.
	timed := time.Now()
	setUpsDue := func() error {
		due := min(w.SetupReps, int(float64(w.SetupReps)*time.Since(timed).Seconds()/o.seconds.Seconds()))
		for len(setup) < due {
			if err := setUp(); err != nil {
				return err
			}
		}
		return nil
	}
	// phase runs whole rounds while the next one, judged by the last,
	// still fits in the budget.
	phase := func(budget time.Duration, tr *tracer) (*compilePhase, error) {
		p := &compilePhase{times: make([][]float64, len(jobs)), u0: readUsage()}
		start := time.Now()
		for last := time.Duration(0); p.agg.rounds == 0 || time.Since(start)+last <= budget; rounds++ {
			t0 := time.Now()
			round(p, tr, rounds)
			if err := setUpsDue(); err != nil {
				return nil, err
			}
			last = time.Since(t0)
		}
		p.u1 = readUsage()
		return p, nil
	}

	var (
		p   *compilePhase
		err error
	)
	if !o.trace {
		if p, err = phase(o.seconds, nil); err != nil {
			return err
		}
	} else {
		a, err := phase(o.seconds/2, nil)
		if err != nil {
			return err
		}
		if p, err = phase(o.seconds/2, o.tracer); err != nil {
			return err
		}
		r.set("bench.trace_overhead_share", median(p.rounds)/median(a.rounds)-1)
	}
	r.set("setup_s", median(setup))

	// Correctness oracle, after timing: every distinct schedule runs on
	// the simulator once.
	var ii, copies int
	for _, j := range jobs {
		if j.sched == nil {
			continue
		}
		ii += j.sched.II
		copies += len(j.sched.Ops) - len(j.k.Ops)
		simulate(r, o.tracer, j.key.String(), j.spec, j.sched)
	}

	// The latencies are of rounds, each a build of the workload's whole
	// kernel set, not of single compiles: one pair's time moves by up to
	// a tenth from run to run even over dozens of rounds, and a round
	// averages that over every pair.
	build := median(p.rounds)
	r.set("ops_per_s", float64(len(jobs))/(build/1e3))
	r.set("latency_p50_ms", build)
	r.set("latency_p99_ms", percentile(p.rounds, 99))
	r.set("alloc_mb_per_op", float64(p.alloc)/float64(p.compiles)/1e6)
	r.set("ii_sum", float64(ii))
	r.set("copies_sum", float64(copies))
	r.set("within_slo_share", float64(p.ok)/float64(p.compiles))

	if o.trace {
		for i, j := range jobs {
			r.set(pairMetric(j.key), median(p.times[i]))
		}
		p.agg.report(r)
		if cov := p.agg.coverage(); cov < 0.9 {
			r.problem("core.pass_coverage %.3f < 0.9: pass self times do not add up to compile time", cov)
		}
		r.set("loadgen.sent", float64(p.compiles))
		r.set("loadgen.cpu_util", cpuUtil(p.u0, p.u1, o.nproc))
		return layerCalls(r, o.tracer, w.inputs(), 3)
	}
	return nil
}
