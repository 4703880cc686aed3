package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
)

func TestDefaultVariants(t *testing.T) {
	vs := DefaultVariants(Options{})
	if len(vs) != 5 {
		t.Fatalf("got %d variants, want 5", len(vs))
	}
	if vs[0].Name != "base" || vs[0].Opts != (Options{}) {
		t.Fatalf("variant 0 must be the untouched base, got %+v", vs[0])
	}
	if !vs[1].Opts.NoCostHeuristic || !vs[2].Opts.CycleOrder || !vs[3].Opts.TwoPhase || !vs[4].Opts.RegisterAware {
		t.Fatalf("ablation flips missing: %+v", vs)
	}
	// Flips are relative to the base: a base with cycle-order on races a
	// variant with it off.
	vs = DefaultVariants(Options{CycleOrder: true})
	if vs[2].Opts.CycleOrder {
		t.Fatalf("cycle-order flip not relative to base: %+v", vs[2].Opts)
	}
	if !vs[1].Opts.CycleOrder {
		t.Fatalf("other variants must inherit the base: %+v", vs[1].Opts)
	}
}

func TestPortfolioBasic(t *testing.T) {
	k := kernels.ByName("DCT").MustKernel()
	m := machine.Distributed()
	seq, err := Compile(k, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, stats, err := CompilePortfolio(context.Background(), k, m, Options{}, PortfolioOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(s); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if s.II > seq.II {
		t.Fatalf("portfolio II=%d worse than sequential II=%d", s.II, seq.II)
	}
	if stats.Winner < 0 || stats.WinnerII != s.II {
		t.Fatalf("stats inconsistent with schedule: %+v vs II=%d", stats, s.II)
	}
	if stats.WinnerName() != stats.Variants[stats.Winner].Name {
		t.Fatalf("WinnerName mismatch: %q", stats.WinnerName())
	}
	if stats.IIsTried == 0 {
		t.Fatal("no attempts recorded")
	}
	if got := len(stats.Variants); got != 5 {
		t.Fatalf("got %d variant stats, want 5", got)
	}
}

func TestPortfolioCustomVariants(t *testing.T) {
	k := kernels.ByName("FFT").MustKernel()
	m := machine.Central()
	s, stats, err := CompilePortfolio(context.Background(), k, m, Options{}, PortfolioOptions{
		Workers: 2,
		Variants: []Variant{
			{Name: "only", Opts: Options{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(s); err != nil {
		t.Fatal(err)
	}
	if stats.Winner != 0 || stats.WinnerName() != "only" {
		t.Fatalf("single-variant portfolio must pick it: %+v", stats)
	}
}

func TestPortfolioContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k := kernels.ByName("Sort").MustKernel()
	_, _, err := CompilePortfolio(ctx, k, machine.Clustered(4), Options{}, PortfolioOptions{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want a context.Canceled-wrapping error, got %v", err)
	}
	var ce *CompileError
	if !errors.As(err, &ce) || ce.Kind != KindCancelled {
		t.Fatalf("want a KindCancelled CompileError, got %v", err)
	}
}

// schedKey projects the deterministic parts of a Schedule: the interval,
// block spans, every placement, and every stub assignment. Stats and
// timings are excluded by construction.
type schedKey struct {
	II, PreambleLen, LoopSpan int
	Assignments               []Assignment
	Routes                    []Route
	Reads                     map[OperandKey]machine.ReadStub
	Dump                      string
}

func keyOf(s *Schedule) schedKey {
	return schedKey{
		II: s.II, PreambleLen: s.PreambleLen, LoopSpan: s.LoopSpan,
		Assignments: s.Assignments, Routes: s.Routes, Reads: s.Reads,
		Dump: s.Dump(),
	}
}

// raceCounters projects the deterministic counters of a portfolio run:
// per-pass Name/Runs/Steps/Fails (wall time excluded) and each
// variant's IIsTried/BestII/Copies.
type raceCounters struct {
	Passes   []PassStat
	Variants [][3]int
}

func countersOf(stats *PortfolioStats) raceCounters {
	var rc raceCounters
	for _, p := range stats.Passes {
		p.Wall = 0
		rc.Passes = append(rc.Passes, p)
	}
	for _, v := range stats.Variants {
		rc.Variants = append(rc.Variants, [3]int{v.IIsTried, v.BestII, v.Copies})
	}
	return rc
}

// TestPortfolioDeterminism runs the portfolio 20 times at worker counts
// 1, 2, and 8 and requires bit-identical schedules — same interval,
// same stub placements, same routes — and identical race counters. The
// race runs every cell at or below the winning interval to completion
// and none above it, so neither goroutine interleaving nor pool width
// may change the winner or any deterministic counter. On
// DCT/distributed only one variant schedules at the winning interval,
// so a cell run above it would show in the counters.
func TestPortfolioDeterminism(t *testing.T) {
	pairs := []struct {
		kernel string
		mach   *machine.Machine
	}{
		{"FFT", machine.Distributed()},
		{"DCT", machine.Central()},
		{"DCT", machine.Distributed()},
	}
	const runs = 20
	for _, p := range pairs {
		k := kernels.ByName(p.kernel).MustKernel()
		var want schedKey
		var wantRC raceCounters
		var have bool
		for _, workers := range []int{1, 2, 8} {
			for run := 0; run < runs; run++ {
				s, stats, err := CompilePortfolio(context.Background(), k, p.mach, Options{}, PortfolioOptions{Workers: workers})
				if err != nil {
					t.Fatalf("%s on %s workers=%d run=%d: %v", p.kernel, p.mach.Name, workers, run, err)
				}
				got, gotRC := keyOf(s), countersOf(stats)
				if !have {
					want, wantRC, have = got, gotRC, true
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %s workers=%d run=%d: schedule differs from first run\nfirst:\n%s\nthis:\n%s",
						p.kernel, p.mach.Name, workers, run, want.Dump, got.Dump)
				}
				if !reflect.DeepEqual(gotRC, wantRC) {
					t.Fatalf("%s on %s workers=%d run=%d: race counters differ from first run\nfirst: %+v\nthis:  %+v",
						p.kernel, p.mach.Name, workers, run, wantRC, gotRC)
				}
			}
		}
	}
}

// TestPortfolioBeatsSequentialSomewhere pins the quality property that
// motivates the portfolio: on at least one paper pair an ablation
// variant reaches a smaller interval than the sequential base
// configuration (DCT on the distributed machine schedules at the ResMII
// bound of 8 under register-aware routing; sequential base needs 10).
func TestPortfolioBeatsSequentialSomewhere(t *testing.T) {
	k := kernels.ByName("DCT").MustKernel()
	m := machine.Distributed()
	seq, err := Compile(k, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, stats, err := CompilePortfolio(context.Background(), k, m, Options{}, PortfolioOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.II >= seq.II {
		t.Fatalf("portfolio II=%d (winner %s) does not beat sequential II=%d",
			s.II, stats.WinnerName(), seq.II)
	}
}

// TestPortfolioSelectionTieBreak pins the deterministic tie-break:
// identical variants tie on interval and copies, so the lowest index
// must win.
func TestPortfolioSelectionTieBreak(t *testing.T) {
	b := ir.NewBuilder("tiny")
	b.Loop()
	v := b.Emit(ir.Add, "x", b.Const(1), b.Const(2))
	b.Emit(ir.Store, "", b.Val(v), b.Const(10), b.Const(0))
	k, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := CompilePortfolio(context.Background(), k, machine.Central(), Options{}, PortfolioOptions{
		Workers: 8,
		Variants: []Variant{
			{Name: "a", Opts: Options{}},
			{Name: "b", Opts: Options{}},
			{Name: "c", Opts: Options{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Winner != 0 {
		t.Fatalf("tie must break to the lowest index, got winner %d (%s)", stats.Winner, stats.WinnerName())
	}
}

// TestPortfolioWinnerCountsRace pins that a portfolio schedule's Stats
// count the whole race, as a ladder schedule's count its walk: fig4 on
// fig5 races five cells before one schedules.
func TestPortfolioWinnerCountsRace(t *testing.T) {
	s, stats, err := CompilePortfolio(context.Background(), kernels.Motivating(), machine.MotivatingExample(), Options{},
		PortfolioOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.IIsTried != 5 || stats.IIsTried != 5 {
		t.Fatalf("Stats.IIsTried = %d, PortfolioStats.IIsTried = %d, want 5 and 5", s.Stats.IIsTried, stats.IIsTried)
	}
}

// TestPortfolioDegrades pins that the portfolio honours Options.Degrade
// like CompileContext does: one placement attempt per operation never
// schedules fig4 on fig5 under any variant, so the race fails and the
// stock ladder's first rung must rescue it with a verified schedule —
// with the default lineup derived from the rung's options, and with a
// custom lineup that the rung reconfigures variant by variant.
func TestPortfolioDegrades(t *testing.T) {
	opts := Options{AttemptBudget: 1, Degrade: DefaultDegradeLadder()}
	for name, lineup := range map[string][]Variant{
		"default": nil,
		"custom":  {{Name: "only", Opts: Options{AttemptBudget: 1}}},
	} {
		s, stats, err := CompilePortfolio(context.Background(), kernels.Motivating(), machine.MotivatingExample(), opts,
			PortfolioOptions{Workers: 2, Variants: lineup})
		if err != nil {
			t.Fatalf("%s lineup: %v", name, err)
		}
		if s.Degraded != "fast-search" {
			t.Errorf("%s lineup: Degraded = %q, want fast-search", name, s.Degraded)
		}
		if err := VerifySchedule(s); err != nil {
			t.Fatalf("%s lineup: verify: %v", name, err)
		}
		if stats == nil || stats.WinnerII != s.II {
			t.Fatalf("%s lineup: stats must describe the rung's race: %+v vs II=%d", name, stats, s.II)
		}
	}
}
