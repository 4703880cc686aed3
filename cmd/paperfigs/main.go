// Command paperfigs regenerates every table and figure of the paper's
// evaluation as text:
//
//	paperfigs -table 1        Table 1 (kernel suite)
//	paperfigs -fig 25         central register file cost bars (Fig. 25)
//	paperfigs -fig 26         clustered register file cost bars (Fig. 26)
//	paperfigs -fig 27         distributed register file cost bars (Fig. 27)
//	paperfigs -fig 28         per-kernel speedups (Fig. 28)
//	paperfigs -fig 29         overall speedups (Fig. 29)
//	paperfigs -claims         §5/§8 headline claims, paper vs. measured
//	paperfigs -scaling        §8 48-unit cost projection
//	paperfigs -ablation       §4.6 design-choice + §6 two-phase ablations
//	paperfigs -regalloc       §7 register pressure, default vs register-aware
//	paperfigs -explore        §8 exploration: the paired organization
//	paperfigs -all            everything
//
// Fig. 28/29 schedule the whole suite on all four architectures
// (roughly a minute); add -sim to also run every schedule on the
// cycle-accurate simulator and validate against the references.
package main

import (
	"flag"
	"fmt"
	"os"

	commsched "repro"
)

func main() {
	table := flag.Int("table", 0, "regenerate a table (1)")
	fig := flag.Int("fig", 0, "regenerate a figure (25, 26, 27, 28, 29)")
	claims := flag.Bool("claims", false, "report the headline claims, paper vs. measured")
	regrep := flag.Bool("regalloc", false, "report §7 register pressure: default vs register-aware routing")
	explore := flag.Bool("explore", false, "report the §8 exploration: the paired organization vs the paper's four")
	scaling := flag.Bool("scaling", false, "report the 48-unit cost projection (§8)")
	ablation := flag.Bool("ablation", false, "report the §4.6 scheduler ablations")
	all := flag.Bool("all", false, "regenerate everything")
	sim := flag.Bool("sim", false, "also simulate every schedule and check outputs")
	flag.Parse()

	did := false
	run := func(want bool, f func()) {
		if want || *all {
			f()
			did = true
			fmt.Println()
		}
	}

	run(*table == 1, printTable1)
	run(*fig == 25 || *fig == 26 || *fig == 27, func() { printCostFigs(*fig) })
	run(*fig == 28 || *fig == 29, func() { printSpeedups(*fig, *sim) })
	run(*claims, func() { printClaims(*sim) })
	run(*scaling, printScaling)
	run(*ablation, printAblation)
	run(*regrep, printRegalloc)
	run(*explore, printExplore)

	if !did {
		flag.Usage()
		os.Exit(2)
	}
}

func printTable1() {
	fmt.Println("Table 1: Evaluation kernels")
	for _, s := range commsched.Kernels() {
		k, err := s.Kernel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperfigs:", err)
			os.Exit(1)
		}
		fmt.Printf("  %-20s %s\n", s.Name, s.Desc)
		fmt.Printf("  %-20s (%d loop operations, %d simulated iterations)\n",
			"", len(k.Loop), k.TripCount)
	}
}

func printCostFigs(which int) {
	fmt.Printf("Figures 25-27: register file architectures, normalized area/power/delay\n")
	fmt.Print(commsched.CostReport([]*commsched.Machine{
		commsched.Central(), commsched.Clustered2(), commsched.Clustered4(), commsched.Distributed(),
	}))
	fmt.Printf("(paper: distributed = 9%% area, 6%% power, 37%% delay of central)\n")
	_ = which
}

func evaluate(sim bool, opts commsched.Options) *commsched.SuiteResult {
	res, err := commsched.Evaluate(commsched.EvalConfig{Simulate: sim, Options: opts})
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
	return res
}

func printSpeedups(which int, sim bool) {
	res := evaluate(sim, commsched.Options{})
	if which == 28 {
		fmt.Print(res.FormatFigure28())
		fmt.Println("\n(paper Fig. 28: distributed 0.91-1.00 per kernel; clustered down to 0.56)")
	} else {
		fmt.Print(res.FormatFigure29())
		fmt.Println("\n(paper Fig. 29: central 1.00, clustered(2) 0.82, clustered(4) 0.82, distributed 0.98)")
	}
	fmt.Println()
	fmt.Print(res.FormatDetail())
}

func printClaims(sim bool) {
	res := evaluate(sim, commsched.Options{})
	fmt.Println("§5/§8 headline claims, paper vs. measured:")

	dist := res.Overall("distributed")
	cl4 := res.Overall("clustered4")
	cl2 := res.Overall("clustered2")
	fmt.Printf("  overall speedup, distributed:   paper 0.98   measured %.2f\n", dist)
	fmt.Printf("  overall speedup, clustered(4):  paper 0.82   measured %.2f\n", cl4)
	fmt.Printf("  overall speedup, clustered(2):  paper 0.82   measured %.2f\n", cl2)
	fmt.Printf("  distributed vs clustered(4):    paper 1.20   measured %.2f\n", dist/cl4)

	minD, kD := res.MinSpeedup("distributed")
	minC, kC := res.MinSpeedup("clustered4")
	fmt.Printf("  min kernel speedup, distributed: paper 0.91  measured %.2f (%s)\n", minD, kD)
	fmt.Printf("  min kernel speedup, clustered:   paper 0.56  measured %.2f (%s)\n", minC, kC)
	fmt.Printf("  kernels at parity on distributed: paper 7/10  measured %d/10\n",
		res.ParityCount("distributed", 0.005))
	fmt.Printf("  backtracking events on distributed: paper 0   measured %d\n",
		res.TotalBacktracks("distributed"))

	p := commsched.DefaultCostParams()
	c := commsched.AnalyzeCost(commsched.Central(), p)
	d := commsched.AnalyzeCost(commsched.Distributed(), p)
	c4 := commsched.AnalyzeCost(commsched.Clustered4(), p)
	fmt.Printf("  distributed area vs central:   paper 0.09   measured %.3f\n", d.Area/c.Area)
	fmt.Printf("  distributed power vs central:  paper 0.06   measured %.3f\n", d.Power/c.Power)
	fmt.Printf("  distributed delay vs central:  paper 0.37   measured %.3f\n", d.Delay/c.Delay)
	fmt.Printf("  distributed area vs clustered: paper 0.56   measured %.3f\n", d.Area/c4.Area)
	fmt.Printf("  distributed power vs clustered:paper 0.50   measured %.3f\n", d.Power/c4.Power)
}

func printScaling() {
	fmt.Println("§8 scaling projection: distributed vs clustered(4) cost")
	p := commsched.DefaultCostParams()
	for _, units := range []int{16, 32, 48, 64} {
		cl := commsched.AnalyzeCost(commsched.ScaledClustered(units, 4), p)
		d := commsched.AnalyzeCost(commsched.ScaledDistributed(units), p)
		fmt.Printf("  %2d units: area %.2f, power %.2f\n", units, d.Area/cl.Area, d.Power/cl.Power)
	}
	fmt.Println("(paper: 16 units -> 56% area / 50% power; 48 units -> 12% area / 9% power)")
}

func printAblation() {
	fmt.Println("§4.6 scheduler ablations (overall speedup on each architecture):")
	evalOpts := func(opts commsched.Options) *commsched.SuiteResult {
		res, err := commsched.Evaluate(commsched.EvalConfig{Options: opts})
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperfigs:", err)
			os.Exit(1)
		}
		return res
	}
	fmt.Printf("  %-34s %12s %12s %12s\n", "configuration", "clustered4", "distributed", "central")
	row := func(name string, r *commsched.SuiteResult) {
		fmt.Printf("  %-34s %12.2f %12.2f %12.2f\n", name,
			r.Overall("clustered4"), r.Overall("distributed"), r.Overall("central"))
	}
	row("operation order + cost heuristic", evalOpts(commsched.Options{}))
	row("cycle order (ablated)", evalOpts(commsched.Options{CycleOrder: true}))
	row("no communication-cost heuristic", evalOpts(commsched.Options{NoCostHeuristic: true}))

	// The §6 multi-phase baseline binds units before cycles. It cannot
	// schedule the whole suite on the shared-interconnect machines
	// (several kernels exhaust every initiation interval once units are
	// fixed), so the comparison uses the kernels it can handle.
	fmt.Println()
	fmt.Println("  two-phase unit assignment (§6 baseline), per kernel on distributed:")
	for _, spec := range commsched.Kernels() {
		k, err := spec.Kernel()
		if err != nil {
			continue
		}
		m := commsched.Distributed()
		base, err := commsched.Compile(k, m, commsched.Options{})
		if err != nil {
			continue
		}
		two, err := commsched.Compile(k, m, commsched.Options{TwoPhase: true, MaxII: 8 * base.II})
		if err != nil {
			fmt.Printf("    %-20s unified II=%-4d two-phase: fails to schedule\n", spec.Name, base.II)
			continue
		}
		fmt.Printf("    %-20s unified II=%-4d two-phase II=%-4d (%.2fx slower)\n",
			spec.Name, base.II, two.II, float64(two.II)/float64(base.II))
	}
}

func printRegalloc() {
	fmt.Println("§7 register pressure on the distributed machine: worst per-file")
	fmt.Println("overflow with default routing vs register-aware routing (the §7")
	fmt.Println("'improved form'):")
	fmt.Printf("  %-20s %10s %16s %10s %16s\n",
		"kernel", "II", "overflow (dflt)", "II (aware)", "overflow (aware)")
	for _, spec := range commsched.Kernels() {
		k, err := spec.Kernel()
		if err != nil {
			continue
		}
		m := commsched.Distributed()
		base, err := commsched.Compile(k, m, commsched.Options{})
		if err != nil {
			continue
		}
		aware, err := commsched.Compile(k, m, commsched.Options{
			RegisterAware: true,
			MaxII:         2 * base.II,
		})
		if err != nil {
			// Sorting networks keep every element live across the whole
			// block: their demand exceeds the machine's total register
			// capacity, so capacity-respecting routing rightly refuses.
			fmt.Printf("  %-20s %10d %16d %10s %16s\n",
				spec.Name, base.II, commsched.WorstOverflow(base), "refused", "over capacity")
			continue
		}
		fmt.Printf("  %-20s %10d %16d %10d %16d\n",
			spec.Name, base.II, commsched.WorstOverflow(base),
			aware.II, commsched.WorstOverflow(aware))
	}
}

func printExplore() {
	fmt.Println("§8 exploration: a fifth organization scheduled by the same compiler.")
	fmt.Println("'Paired' shares one 2-read/2-write-port file between the same inputs")
	fmt.Println("of adjacent units (16 files instead of 32):")
	archs := []*commsched.Machine{
		commsched.Central(), commsched.Clustered4(), commsched.Distributed(), commsched.Paired(),
	}
	res, err := commsched.Evaluate(commsched.EvalConfig{Archs: archs})
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
	p := commsched.DefaultCostParams()
	base := commsched.AnalyzeCost(commsched.Central(), p)
	fmt.Printf("  %-14s %10s %12s %10s %10s %10s\n",
		"architecture", "overall", "min kernel", "area", "power", "delay")
	for _, m := range archs {
		c := commsched.AnalyzeCost(m, p)
		min, _ := res.MinSpeedup(m.Name)
		fmt.Printf("  %-14s %10.2f %12.2f %10.3f %10.3f %10.3f\n",
			m.Name, res.Overall(m.Name), min, c.Area/base.Area, c.Power/base.Power, c.Delay/base.Delay)
	}
	fmt.Println("\n(the paired organization approaches central parity while keeping")
	fmt.Println("the distributed machine's order-of-magnitude cost advantage)")
}
