package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// TestInjectedPassPanicIsInternal pins the pass-pipeline recovery: a
// panic injected at a pass boundary surfaces as a structured
// KindInternal error carrying the pass name and the recovered stack —
// never a crash.
func TestInjectedPassPanicIsInternal(t *testing.T) {
	for _, pass := range []string{PassLower, PassPrioritize, PassPlace, PassRegalloc} {
		t.Run(pass, func(t *testing.T) {
			plane := faultinject.New(1, faultinject.Rule{
				Site: faultinject.SitePass, Label: pass, Nth: 1, Action: faultinject.Panic,
			})
			k := kernels.ByName("FIR-INT").MustKernel()
			_, err := Compile(k, machine.Distributed(), Options{Faults: plane})
			var ce *CompileError
			if !errors.As(err, &ce) || ce.Kind != KindInternal {
				t.Fatalf("want KindInternal CompileError, got %v", err)
			}
			if ce.Pass != pass {
				t.Errorf("pass = %q, want %q", ce.Pass, pass)
			}
			if !strings.Contains(ce.Reason, "injected panic") {
				t.Errorf("reason does not carry the panic value: %q", ce.Reason)
			}
			if ce.Stack == "" {
				t.Error("recovered stack missing")
			}
			if ce.Kernel != k.Name {
				t.Errorf("kernel identity %q not filled", ce.Kernel)
			}
		})
	}
}

// TestInjectedSolverPanicCarriesOpContext pins the deepest recovery
// path: a panic in the middle of the §4.4 permutation search (under
// the place pass) is recovered with the operation in flight attached.
func TestInjectedSolverPanicCarriesOpContext(t *testing.T) {
	plane := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SiteSolver, Nth: 50, Action: faultinject.Panic,
	})
	k := kernels.ByName("DCT").MustKernel()
	_, err := Compile(k, machine.Distributed(), Options{Faults: plane})
	var ce *CompileError
	if !errors.As(err, &ce) || ce.Kind != KindInternal {
		t.Fatalf("want KindInternal CompileError, got %v", err)
	}
	if ce.Pass != PassPlace {
		t.Errorf("pass = %q, want %q", ce.Pass, PassPlace)
	}
	if ce.Op == NoOp {
		t.Error("internal error missing the operation in flight")
	}
	if ce.II <= 0 {
		t.Errorf("internal error missing the interval in flight: %+v", ce)
	}
}

// TestInjectedPortfolioPanicContained pins worker-goroutine isolation:
// a panic on a portfolio worker becomes a structured internal error
// naming the variant — a bare goroutine panic would kill the process.
func TestInjectedPortfolioPanicContained(t *testing.T) {
	plane := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SitePortfolio, Nth: 1, Action: faultinject.Panic,
	})
	k := kernels.ByName("FIR-INT").MustKernel()
	_, _, err := CompilePortfolio(nil, k, machine.Distributed(), Options{Faults: plane},
		PortfolioOptions{Workers: 2})
	var ce *CompileError
	if !errors.As(err, &ce) || ce.Kind != KindInternal {
		t.Fatalf("want KindInternal CompileError, got %v", err)
	}
	if !strings.Contains(ce.Reason, "variant") {
		t.Errorf("reason does not name the variant: %q", ce.Reason)
	}
	if ce.Stack == "" {
		t.Error("recovered stack missing")
	}
}

// TestPortfolioRunsNoCellAboveWinner pins that the race never starts a
// cell above the winning interval: a Panic rule at the portfolio site
// armed one past the number of cells at or below the winning interval
// must never fire, even with more workers than variants.
func TestPortfolioRunsNoCellAboveWinner(t *testing.T) {
	k := kernels.ByName("DCT").MustKernel()
	m := machine.Distributed()
	_, stats, err := CompilePortfolio(nil, k, m, Options{}, PortfolioOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	cells := (stats.WinnerII - stats.MinII + 1) * len(stats.Variants)
	plane := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SitePortfolio, Nth: uint64(cells + 1), Action: faultinject.Panic,
	})
	s, _, err := CompilePortfolio(nil, k, m, Options{Faults: plane}, PortfolioOptions{Workers: 8})
	if err != nil {
		t.Fatalf("a cell above the winning interval ran: %v", err)
	}
	if s.II != stats.WinnerII {
		t.Fatalf("II %d under an unfired rule, want %d", s.II, stats.WinnerII)
	}
}

// TestInjectedSolverExhaustFailsSchedule pins the Exhaust action at the
// solver site: with every permutation budget forced to zero, kernels
// needing real permutation work stop scheduling, and the failure stays
// the ordinary structured schedule kind.
func TestInjectedSolverExhaustFailsSchedule(t *testing.T) {
	plane := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SiteSolver, Nth: 1, Every: 1, Action: faultinject.Exhaust,
	})
	k := kernels.ByName("DCT").MustKernel()
	_, err := Compile(k, machine.Distributed(), Options{Faults: plane, MaxII: 40})
	var ce *CompileError
	if !errors.As(err, &ce) || ce.Kind != KindSchedule {
		t.Fatalf("want KindSchedule CompileError, got %v", err)
	}
}

// TestDegradationLadderRecoversBudgetExhaustion pins the ladder end to
// end on a forced-budget-exhaustion case: a permutation budget of 1
// step cannot schedule DCT's communications, the fast-search rung
// restores a workable budget, and the resulting schedule names the
// rung and passes independent verification.
func TestDegradationLadderRecoversBudgetExhaustion(t *testing.T) {
	k := kernels.ByName("DCT").MustKernel()
	m := machine.Distributed()
	base := Options{PermBudget: 1, MaxII: 40}
	if _, err := Compile(k, m, base); err == nil {
		t.Skip("PermBudget 1 unexpectedly schedules DCT; exhaustion case gone")
	}
	opts := base
	opts.Degrade = &DegradeLadder{Rungs: []DegradeRung{
		{Name: "fast-search", PermBudget: 512, AttemptBudget: 32},
	}}
	s, err := CompileContext(t.Context(), k, m, opts)
	if err != nil {
		t.Fatalf("ladder did not recover: %v", err)
	}
	if s.Degraded != "fast-search" {
		t.Fatalf("Degraded = %q, want fast-search", s.Degraded)
	}
	if err := VerifySchedule(s); err != nil {
		t.Fatalf("degraded schedule fails verification: %v", err)
	}
}

// TestDegradationLadderRelaxesInterval pins the MaxIIBoost rung: an
// interval cap below feasibility fails the primary configuration, the
// relaxed-ii rung raises it, and the winner schedules at the natural
// interval.
func TestDegradationLadderRelaxesInterval(t *testing.T) {
	k := kernels.ByName("FIR-INT").MustKernel()
	m := machine.Distributed()
	ref, err := Compile(k, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := Options{MaxII: ref.II - 1}
	if base.MaxII < 1 {
		t.Skip("kernel schedules at II 1; no infeasible cap exists")
	}
	if _, err := Compile(k, m, base); err == nil {
		t.Fatal("capped compile unexpectedly scheduled")
	}
	opts := base
	opts.Degrade = &DegradeLadder{Rungs: []DegradeRung{
		{Name: "relaxed-ii", MaxIIBoost: 64},
	}}
	s, err := CompileContext(t.Context(), k, m, opts)
	if err != nil {
		t.Fatalf("ladder did not recover: %v", err)
	}
	if s.Degraded != "relaxed-ii" {
		t.Fatalf("Degraded = %q, want relaxed-ii", s.Degraded)
	}
	if s.II != ref.II {
		t.Errorf("degraded II %d, natural II %d", s.II, ref.II)
	}
	if err := VerifySchedule(s); err != nil {
		t.Fatalf("degraded schedule fails verification: %v", err)
	}
}

// TestDegradationNeverRetriesNonScheduleErrors pins the ladder's
// scope: invalid input and internal errors return as-is, without
// walking the rungs.
func TestDegradationNeverRetriesNonScheduleErrors(t *testing.T) {
	k := kernels.ByName("FIR-INT").MustKernel()
	m := machine.Distributed()
	ladder := DefaultDegradeLadder()

	// Invalid input: a negative budget fails validation.
	_, err := CompileContext(t.Context(), k, m, Options{PermBudget: -1, Degrade: ladder})
	var ce *CompileError
	if !errors.As(err, &ce) || ce.Kind != KindInvalidInput {
		t.Fatalf("want KindInvalidInput, got %v", err)
	}

	// Internal: an injected pass panic must not be retried (the rungs
	// would panic again; more importantly, internal errors must never
	// be masked by a cheaper rung's result). The Nth=1 rule fires once,
	// so a retried compile would NOT panic — surviving as KindInternal
	// proves the ladder returned immediately.
	plane := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SitePass, Label: PassPlace, Nth: 1, Action: faultinject.Panic,
	})
	_, err = CompileContext(t.Context(), k, m, Options{Faults: plane, Degrade: ladder})
	if !errors.As(err, &ce) || ce.Kind != KindInternal {
		t.Fatalf("want KindInternal, got %v", err)
	}
}

// TestDisabledFaultPlaneBitIdentical pins the differential contract:
// an armed-but-never-firing plane (and the probe plumbing itself) must
// not perturb a single scheduling decision.
func TestDisabledFaultPlaneBitIdentical(t *testing.T) {
	k := kernels.ByName("FIR-INT").MustKernel()
	m := machine.Distributed()
	a, err := Compile(k, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	never := faultinject.New(9, faultinject.Rule{
		Site: faultinject.SitePass, Label: "no-such-pass", Nth: 1, Action: faultinject.Panic,
	})
	b, err := Compile(k, m, Options{Faults: never})
	if err != nil {
		t.Fatal(err)
	}
	if a.Dump() != b.Dump() {
		t.Fatal("armed-but-idle fault plane changed the schedule")
	}
}
