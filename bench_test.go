package commsched

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// The benchmark harness regenerates every evaluation artifact of the
// paper; each benchmark corresponds to one table or figure and reports
// the reproduced quantity through b.ReportMetric in addition to timing
// the machinery that computes it.
//
// Run everything with:
//
//	go test -bench . -benchmem
//
// The Fig. 28/29 benchmarks schedule the whole Table 1 suite on all
// four architectures and take a few minutes per iteration.

// BenchmarkFig7_MotivatingExample times scheduling the §2 code fragment
// on the Fig. 5 shared-interconnect machine and reports the schedule
// length of the five-operation fragment (the paper's Fig. 7 fits it in
// three cycles) and the copies inserted.
func BenchmarkFig7_MotivatingExample(b *testing.B) {
	m := Fig5Machine()
	k := MotivatingKernel()
	var s *Schedule
	for i := 0; i < b.N; i++ {
		var err error
		s, err = Compile(k, m, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	frag := 0
	for i := 0; i < 5; i++ {
		if c := s.Assignments[i].Cycle + 1; c > frag {
			frag = c
		}
	}
	b.ReportMetric(float64(frag), "fragment-cycles")
	b.ReportMetric(float64(len(s.Ops)-len(k.Ops)), "copies")
}

// benchCost reports one architecture's normalized cost bars (Figs.
// 25–27) while timing the model.
func benchCost(b *testing.B, m *Machine) {
	b.Helper()
	p := DefaultCostParams()
	base := AnalyzeCost(Central(), p)
	var c Cost
	for i := 0; i < b.N; i++ {
		c = AnalyzeCost(m, p)
	}
	b.ReportMetric(c.Area/base.Area, "rel-area")
	b.ReportMetric(c.Power/base.Power, "rel-power")
	b.ReportMetric(c.Delay/base.Delay, "rel-delay")
}

// BenchmarkFig25_CentralCost reproduces the Fig. 25 cost bars.
func BenchmarkFig25_CentralCost(b *testing.B) { benchCost(b, Central()) }

// BenchmarkFig26_ClusteredCost reproduces the Fig. 26 cost bars (four
// clusters; the two-cluster variant appears in the -fig 26 tool
// output).
func BenchmarkFig26_ClusteredCost(b *testing.B) { benchCost(b, Clustered4()) }

// BenchmarkFig27_DistributedCost reproduces the Fig. 27 cost bars —
// the paper's 9 % area / 6 % power / 37 % delay headline.
func BenchmarkFig27_DistributedCost(b *testing.B) { benchCost(b, Distributed()) }

// BenchmarkTable1_KernelLowering times taking the whole Table 1 suite
// from kernel-language source to IR ("parse") and on through
// communication scheduling on the central baseline architecture
// ("schedule-central"). The schedule-central allocation figures are the
// tracked hot-path metric: candidate lists come interned from the
// machine routing index and the solver scratch is reused, so allocs/op
// here moves only when the scheduler's allocation discipline does.
func BenchmarkTable1_KernelLowering(b *testing.B) {
	specs := Kernels()
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range specs {
				if _, err := ParseKernel(s.Source); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(specs)), "kernels")
	})
	b.Run("schedule-central", func(b *testing.B) {
		b.ReportAllocs()
		kernels := make([]*Kernel, len(specs))
		for i, s := range specs {
			k, err := s.Kernel()
			if err != nil {
				b.Fatal(err)
			}
			kernels[i] = k
		}
		m := Central()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range kernels {
				if _, err := Compile(k, m, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(kernels)), "kernels")
	})
}

// BenchmarkFig28_KernelSpeedup schedules every Table 1 kernel on one
// architecture per sub-benchmark and reports the per-kernel speedup
// data of Fig. 28 as the geometric-mean metric (per-kernel rows print
// via cmd/paperfigs -fig 28).
func BenchmarkFig28_KernelSpeedup(b *testing.B) {
	for _, arch := range []func() *Machine{Central, Clustered2, Clustered4, Distributed} {
		m := arch()
		b.Run(m.Name, func(b *testing.B) {
			var res *SuiteResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Evaluate(EvalConfig{Archs: []*Machine{Central(), m}})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Overall(m.Name), "overall-speedup")
			min, _ := res.MinSpeedup(m.Name)
			b.ReportMetric(min, "min-speedup")
		})
	}
}

// BenchmarkFig29_OverallSpeedup runs the full four-architecture
// evaluation and reports the Fig. 29 overall speedups.
func BenchmarkFig29_OverallSpeedup(b *testing.B) {
	var res *SuiteResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = Evaluate(EvalConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range res.Archs {
		b.ReportMetric(res.Overall(a), fmt.Sprintf("speedup-%s", a))
	}
}

// BenchmarkScaling48 reproduces the §8 projection: distributed vs
// four-cluster cost at 48 units (paper: 12 % area, 9 % power).
func BenchmarkScaling48(b *testing.B) {
	p := DefaultCostParams()
	var ra, rp float64
	for i := 0; i < b.N; i++ {
		cl := AnalyzeCost(ScaledClustered(48, 4), p)
		d := AnalyzeCost(ScaledDistributed(48), p)
		ra, rp = d.Area/cl.Area, d.Power/cl.Power
	}
	b.ReportMetric(ra, "rel-area-vs-cl4")
	b.ReportMetric(rp, "rel-power-vs-cl4")
}

// ablationKernels is the subset used by the §4.6 ablation benchmarks.
func ablationKernels() []*KernelSpec {
	return []*KernelSpec{
		KernelByName("DCT"), KernelByName("FFT"), KernelByName("Block Warp"),
	}
}

// BenchmarkAblationCycleOrder compares the paper's operation-order
// scheduling against cycle-order scheduling (§4.6) on the distributed
// machine.
func BenchmarkAblationCycleOrder(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"operation-order", Options{}},
		{"cycle-order", Options{CycleOrder: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var res *SuiteResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Evaluate(EvalConfig{
					Archs:   []*Machine{Central(), Distributed()},
					Kernels: ablationKernels(),
					Options: cfg.opts,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Overall("distributed"), "overall-speedup")
		})
	}
}

// BenchmarkAblationCostHeuristic compares scheduling with and without
// the equation-1 communication-cost unit ordering (§4.6) on the
// clustered machine, where unit choice decides copy counts.
func BenchmarkAblationCostHeuristic(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"with-heuristic", Options{}},
		{"without-heuristic", Options{NoCostHeuristic: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var res *SuiteResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Evaluate(EvalConfig{
					Archs:   []*Machine{Central(), Clustered4()},
					Kernels: ablationKernels(),
					Options: cfg.opts,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Overall("clustered4"), "overall-speedup")
		})
	}
}

// BenchmarkPortfolio races the ablation portfolio against the
// sequential scheduler on the mid-size DCT kernel over all four paper
// architectures. Each architecture gets a sequential baseline plus
// portfolio runs at 1 and 4 workers; compare ns/op across the
// sub-benchmarks for the wall-clock speedup and the II metric for
// schedule quality (the portfolio reaches II=8 on the distributed
// machine where the sequential base settles for 10). On a single-core
// host the 4-worker run still wins wherever cancellation prunes the
// higher intervals the sequential search would have visited.
func BenchmarkPortfolio(b *testing.B) {
	spec := KernelByName("DCT")
	k, err := spec.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	for _, arch := range []func() *Machine{Central, Clustered2, Clustered4, Distributed} {
		m := arch()
		b.Run(m.Name+"/sequential", func(b *testing.B) {
			var s *Schedule
			for i := 0; i < b.N; i++ {
				s, err = Compile(k, m, Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.II), "II")
		})
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/portfolio-%d", m.Name, workers), func(b *testing.B) {
				var s *Schedule
				var stats *PortfolioStats
				for i := 0; i < b.N; i++ {
					s, stats, err = CompilePortfolio(context.Background(), k, m, Options{}, workers)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(s.II), "II")
				b.ReportMetric(float64(stats.IIsTried), "iis-tried")
			})
		}
	}
}

// BenchmarkPortfolioSpeedup records the wall-clock win: Sort on the
// two-cluster machine is the pair where racing pays off even on a
// single core. The sequential base burns its time failing at intervals
// 64–67 before settling for 68; in the portfolio the cycle-order
// variant proves II=64 quickly and cancels everything above it. The
// speedup metric is sequential wall time over 4-worker portfolio wall
// time (>1 means the portfolio won); on multi-core hosts it grows
// further since the variants genuinely overlap.
func BenchmarkPortfolioSpeedup(b *testing.B) {
	spec := KernelByName("Sort")
	k, err := spec.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	m := Clustered2()
	var seqNS, pfNS int64
	var seqII, pfII int
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		seq, err := Compile(k, m, Options{})
		if err != nil {
			b.Fatal(err)
		}
		seqNS += time.Since(t0).Nanoseconds()
		seqII = seq.II
		t0 = time.Now()
		pf, _, err := CompilePortfolio(context.Background(), k, m, Options{}, 4)
		if err != nil {
			b.Fatal(err)
		}
		pfNS += time.Since(t0).Nanoseconds()
		pfII = pf.II
	}
	b.ReportMetric(float64(seqNS)/float64(pfNS), "speedup")
	b.ReportMetric(float64(seqII), "sequential-II")
	b.ReportMetric(float64(pfII), "portfolio-II")
}

// BenchmarkSimulator times the cycle-accurate simulator on the FFT
// kernel's distributed schedule and reports simulated cycles per run.
func BenchmarkSimulator(b *testing.B) {
	spec := KernelByName("FFT")
	k, err := spec.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	s, err := Compile(k, Distributed(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	mem := spec.Init()
	b.ResetTimer()
	var cycles int
	for i := 0; i < b.N; i++ {
		res, err := Simulate(s, SimConfig{InitMem: mem})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkScheduler times raw scheduling throughput per architecture
// on the mid-size DCT kernel.
func BenchmarkScheduler(b *testing.B) {
	spec := KernelByName("DCT")
	k, err := spec.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	for _, arch := range []func() *Machine{Central, Clustered4, Distributed} {
		m := arch()
		b.Run(m.Name, func(b *testing.B) {
			var s *Schedule
			for i := 0; i < b.N; i++ {
				s, err = Compile(k, m, Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.II), "II")
		})
	}
}

// BenchmarkSchedulerThroughput reports end-to-end scheduling
// throughput — whole compilations per second — for the mid-size DCT
// kernel on the distributed architecture, the configuration the paper's
// evaluation centers on. BENCH_sched.json tracks this number (and the
// allocs/op reported by -benchmem) across the perf trajectory.
func BenchmarkSchedulerThroughput(b *testing.B) {
	spec := KernelByName("DCT")
	k, err := spec.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	m := Distributed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(k, m, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "compiles/s")
	}
}

// BenchmarkCompileTracing quantifies the observability layer's cost on
// the same DCT/distributed workload BenchmarkScheduler times, so the
// "disabled" sub-benchmark is directly comparable against the pre-
// tracing scheduler baseline: with a nil tracer the emit helpers must
// be free (their no-op path is also pinned allocation-free by
// core.TestDisabledTracerAllocatesNothing), and "recording" bounds the
// full cost of capturing every decision point.
func BenchmarkCompileTracing(b *testing.B) {
	spec := KernelByName("DCT")
	k, err := spec.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	m := Distributed()
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Compile(k, m, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recording", func(b *testing.B) {
		var events int
		for i := 0; i < b.N; i++ {
			rec := NewTraceRecorder()
			if _, err := Compile(k, m, Options{Tracer: rec}); err != nil {
				b.Fatal(err)
			}
			events = rec.Len()
		}
		b.ReportMetric(float64(events), "events")
	})
}
