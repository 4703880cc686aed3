package commsched

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// This file is the evaluation harness behind §5's results: it schedules
// the Table 1 kernel suite on the four register-file architectures,
// computes the paper's speedup metric ("speedup was calculated as the
// inverse of the schedule length of that loop normalized to the
// schedule length for the central register file architecture"), and
// renders Figs. 28 and 29 plus the section's headline claims.

// KernelResult is one (kernel, architecture) measurement.
type KernelResult struct {
	Kernel      string
	Arch        string
	II          int // loop schedule length — the performance metric
	Copies      int // copy operations inserted
	PreambleLen int
	Backtracks  int
	Attempts    int
	SchedTime   time.Duration
	Simulated   bool
	CheckErr    error
}

// SuiteResult holds the full evaluation matrix.
type SuiteResult struct {
	Kernels []string
	Archs   []string
	results map[string]map[string]*KernelResult // kernel → arch → result
}

// EvalConfig controls an evaluation run.
type EvalConfig struct {
	// Archs to evaluate; nil means the paper's four.
	Archs []*Machine
	// Kernels to evaluate; nil means the Table 1 suite.
	Kernels []*KernelSpec
	// Simulate additionally runs every schedule on the cycle-accurate
	// simulator and validates against the reference implementations.
	Simulate bool
	// Options passed to the scheduler.
	Options Options
}

// Evaluate runs the configured suite.
func Evaluate(cfg EvalConfig) (*SuiteResult, error) {
	archs := cfg.Archs
	if archs == nil {
		archs = Architectures()
	}
	specs := cfg.Kernels
	if specs == nil {
		specs = Kernels()
	}
	res := &SuiteResult{results: make(map[string]map[string]*KernelResult)}
	for _, m := range archs {
		res.Archs = append(res.Archs, m.Name)
	}
	for _, spec := range specs {
		res.Kernels = append(res.Kernels, spec.Name)
		res.results[spec.Name] = make(map[string]*KernelResult)
	}
	// Every (kernel, architecture) measurement is independent; run them
	// concurrently. Kernels and machines are immutable after
	// construction, and each compilation owns all of its mutable state.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for _, spec := range specs {
		k, err := spec.Kernel()
		if err != nil {
			return nil, fmt.Errorf("commsched: %s: %w", spec.Name, err)
		}
		for _, m := range archs {
			spec, k, m := spec, k, m
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				s, err := Compile(k, m, cfg.Options)
				if err != nil {
					fail(fmt.Errorf("commsched: %s on %s: %w", spec.Name, m.Name, err))
					return
				}
				if err := Verify(s); err != nil {
					fail(fmt.Errorf("commsched: %s on %s: %w", spec.Name, m.Name, err))
					return
				}
				kr := &KernelResult{
					Kernel:      spec.Name,
					Arch:        m.Name,
					II:          s.II,
					Copies:      len(s.Ops) - len(k.Ops),
					PreambleLen: s.PreambleLen,
					Backtracks:  s.Stats.Backtracks,
					Attempts:    s.Stats.Attempts,
					SchedTime:   time.Since(start),
				}
				if cfg.Simulate {
					sim, err := Simulate(s, SimConfig{InitMem: spec.Init()})
					if err != nil {
						fail(fmt.Errorf("commsched: simulate %s on %s: %w", spec.Name, m.Name, err))
						return
					}
					kr.Simulated = true
					kr.CheckErr = spec.Check(sim.Mem)
					if kr.CheckErr != nil {
						fail(fmt.Errorf("commsched: check %s on %s: %w", spec.Name, m.Name, kr.CheckErr))
						return
					}
				}
				mu.Lock()
				res.results[spec.Name][m.Name] = kr
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// Result returns the measurement for (kernel, arch), or nil.
func (r *SuiteResult) Result(kernel, arch string) *KernelResult {
	if m := r.results[kernel]; m != nil {
		return m[arch]
	}
	return nil
}

// Speedup returns the paper's metric for (kernel, arch): the central
// architecture's loop schedule length divided by this architecture's.
func (r *SuiteResult) Speedup(kernel, arch string) float64 {
	base := r.Result(kernel, r.Archs[0])
	kr := r.Result(kernel, arch)
	if base == nil || kr == nil || kr.II == 0 {
		return math.NaN()
	}
	return float64(base.II) / float64(kr.II)
}

// Overall returns the Fig. 29 overall speedup for an architecture: the
// geometric mean of the kernel speedups.
func (r *SuiteResult) Overall(arch string) float64 {
	logSum, n := 0.0, 0
	for _, k := range r.Kernels {
		s := r.Speedup(k, arch)
		if math.IsNaN(s) || s <= 0 {
			return math.NaN()
		}
		logSum += math.Log(s)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(logSum / float64(n))
}

// MinSpeedup returns the worst kernel speedup on an architecture and
// the kernel achieving it.
func (r *SuiteResult) MinSpeedup(arch string) (float64, string) {
	best, name := math.Inf(1), ""
	for _, k := range r.Kernels {
		if s := r.Speedup(k, arch); s < best {
			best, name = s, k
		}
	}
	return best, name
}

// ParityCount returns how many kernels run within tol of the central
// architecture's performance on arch ("Seven out of the ten kernels
// evaluated have the same performance on a distributed register file
// architecture as on a central register file architecture", §5).
func (r *SuiteResult) ParityCount(arch string, tol float64) int {
	n := 0
	for _, k := range r.Kernels {
		if r.Speedup(k, arch) >= 1-tol {
			n++
		}
	}
	return n
}

// TotalBacktracks sums §4.5 backtracking events across the suite on an
// architecture.
func (r *SuiteResult) TotalBacktracks(arch string) int {
	n := 0
	for _, k := range r.Kernels {
		if kr := r.Result(k, arch); kr != nil {
			n += kr.Backtracks
		}
	}
	return n
}

// FormatFigure28 renders the per-kernel speedup table of Fig. 28.
func (r *SuiteResult) FormatFigure28() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 28: Kernel Speedup vs. Register File Architecture\n")
	fmt.Fprintf(&b, "%-20s", "kernel")
	for _, a := range r.Archs {
		fmt.Fprintf(&b, "%14s", a)
	}
	b.WriteByte('\n')
	for _, k := range r.Kernels {
		fmt.Fprintf(&b, "%-20s", k)
		for _, a := range r.Archs {
			fmt.Fprintf(&b, "%14.2f", r.Speedup(k, a))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatFigure29 renders the overall speedup row of Fig. 29.
func (r *SuiteResult) FormatFigure29() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 29: Overall Speedup vs. Register File Architecture\n")
	fmt.Fprintf(&b, "%-20s", "overall (geomean)")
	for _, a := range r.Archs {
		fmt.Fprintf(&b, "%14.2f", r.Overall(a))
	}
	b.WriteByte('\n')
	return b.String()
}

// FormatDetail renders the raw measurement matrix (IIs and copies).
func (r *SuiteResult) FormatDetail() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %-14s %6s %7s %9s %11s\n", "kernel", "arch", "II", "copies", "preamble", "backtracks")
	for _, k := range r.Kernels {
		for _, a := range r.Archs {
			kr := r.Result(k, a)
			fmt.Fprintf(&b, "%-20s %-14s %6d %7d %9d %11d\n",
				k, a, kr.II, kr.Copies, kr.PreambleLen, kr.Backtracks)
		}
	}
	return b.String()
}

// WorstOverflow returns the schedule's largest per-register-file
// capacity overflow in registers (0 = the schedule fits), from the §7
// implicit demand the regalloc pass computed.
func WorstOverflow(s *Schedule) int {
	worst := 0
	for _, rf := range s.Machine.RegFiles {
		if over := s.RegDemand[rf.ID] - rf.NumRegs; over > worst {
			worst = over
		}
	}
	return worst
}
