package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
)

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options must validate: %v", err)
	}
	if err := (Options{MaxII: 4, PermBudget: 100, ScanWindow: 8, AttemptBudget: 2, MaxCandidates: 5}).Validate(); err != nil {
		t.Fatalf("positive options must validate: %v", err)
	}
	cases := []struct {
		name string
		o    Options
		want string
	}{
		{"MaxII", Options{MaxII: -1}, "MaxII"},
		{"PermBudget", Options{PermBudget: -2}, "PermBudget"},
		{"MaxCandidates", Options{MaxCandidates: -3}, "MaxCandidates"},
		{"ScanWindow", Options{ScanWindow: -4}, "ScanWindow"},
		{"AttemptBudget", Options{AttemptBudget: -5}, "AttemptBudget"},
	}
	for _, c := range cases {
		err := c.o.Validate()
		if err == nil {
			t.Errorf("%s: negative value validated", c.name)
			continue
		}
		var ce *CompileError
		if !errors.As(err, &ce) || ce.Pass != PassOptions {
			t.Errorf("%s: want CompileError in pass %q, got %#v", c.name, PassOptions, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the field", c.name, err)
		}
	}
	// Several bad fields are reported together.
	err := Options{MaxII: -1, PermBudget: -1}.Validate()
	if err == nil || !strings.Contains(err.Error(), "MaxII") || !strings.Contains(err.Error(), "PermBudget") {
		t.Errorf("multi-field error incomplete: %v", err)
	}
}

func TestOptionsValidateFor(t *testing.T) {
	for _, m := range []*machine.Machine{machine.Central(), machine.Clustered(4), machine.Distributed()} {
		floor := m.CandidateFloor()
		if err := (Options{}).ValidateFor(m); err != nil {
			t.Errorf("%s: zero options must validate: %v", m.Name, err)
		}
		if err := (Options{MaxCandidates: floor}).ValidateFor(m); err != nil {
			t.Errorf("%s: cap at the floor must validate: %v", m.Name, err)
		}
		err := Options{MaxCandidates: floor - 1}.ValidateFor(m)
		var ce *CompileError
		if !errors.As(err, &ce) || ce.Pass != PassOptions {
			t.Fatalf("%s: sub-floor cap: want options CompileError, got %v", m.Name, err)
		}
		for _, want := range []string{"MaxCandidates", m.Name} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", m.Name, err, want)
			}
		}
	}
	// Plain negative values still fail through the machine-aware check.
	if err := (Options{PermBudget: -1}).ValidateFor(machine.Central()); err == nil {
		t.Error("negative budget validated")
	}
	// Compile surfaces the sub-floor cap as a structured error.
	m := machine.Distributed()
	k := kernels.ByName("DCT").MustKernel()
	_, err := Compile(k, m, Options{MaxCandidates: m.CandidateFloor() - 1})
	var ce *CompileError
	if !errors.As(err, &ce) || ce.Pass != PassOptions || ce.Machine != m.Name {
		t.Errorf("Compile sub-floor cap: %v", err)
	}
}

func TestCompileRejectsInvalidOptions(t *testing.T) {
	k := kernels.ByName("DCT").MustKernel()
	_, err := Compile(k, machine.Central(), Options{PermBudget: -1})
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("want CompileError, got %v", err)
	}
	if ce.Pass != PassOptions || ce.Kernel != k.Name || ce.Machine != "central" {
		t.Errorf("fields not filled: %+v", ce)
	}
	if _, _, err := CompilePortfolio(context.Background(), k, machine.Central(), Options{MaxII: -7}, PortfolioOptions{}); err == nil {
		t.Error("portfolio accepted invalid base options")
	}
	_, _, err = CompilePortfolio(context.Background(), k, machine.Central(), Options{}, PortfolioOptions{
		Variants: []Variant{{Name: "bad", Opts: Options{ScanWindow: -1}}},
	})
	if err == nil || !strings.Contains(err.Error(), `variant "bad"`) {
		t.Errorf("portfolio variant validation: %v", err)
	}
}

func TestCheckUnitsStructuredError(t *testing.T) {
	// A multiply on the fig5 machine (adders + load/store only) fails
	// the lower pass with op identity attached.
	b := ir.NewBuilder("nomul")
	x := b.Emit(ir.Mul, "x", b.Const(2), b.Const(3))
	b.Emit(ir.Store, "", b.Val(x), b.Const(9), b.Const(0))
	k := b.MustFinish()
	_, err := Compile(k, machine.MotivatingExample(), Options{})
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("want CompileError, got %v", err)
	}
	if ce.Pass != PassLower || ce.Kernel != "nomul" || ce.Machine != "fig5" || ce.Op != 0 {
		t.Errorf("fields: %+v", ce)
	}
	if !strings.Contains(ce.Error(), "core: no unit") {
		t.Errorf("historical message lost: %q", ce.Error())
	}
}

func TestDoesNotScheduleStructuredError(t *testing.T) {
	k := kernels.ByName("DCT").MustKernel()
	m := machine.Clustered(4)
	_, err := Compile(k, m, Options{MaxII: 1})
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("want CompileError, got %v", err)
	}
	if ce.Kernel != k.Name || ce.Machine != m.Name {
		t.Errorf("identity fields: %+v", ce)
	}
	if !strings.Contains(ce.Error(), "does not schedule") {
		t.Errorf("historical message lost: %q", ce.Error())
	}
	if ce.Pass == PassPlace {
		// The place pass localized the failure to an operation.
		if ce.Op == NoOp {
			t.Error("place failure carries no op")
		}
	} else if ce.Pass != PassLower {
		t.Errorf("unexpected failing pass %q", ce.Pass)
	}
}

func TestInvertedIntervalBounds(t *testing.T) {
	// FIR's recurrence/resource bound on the central machine is above 1,
	// so MaxII: 1 inverts the interval search bounds; the lower pass
	// reports it, keeping the pinned does-not-schedule phrasing.
	k := kernels.ByName("FIR-INT").MustKernel()
	minII := mustResMII(t, k, machine.Central())
	if minII <= 1 {
		t.Skip("FIR minII too small to invert")
	}
	_, err := Compile(k, machine.Central(), Options{MaxII: 1})
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("want CompileError, got %v", err)
	}
	if ce.Pass != PassLower || !strings.Contains(ce.Reason, "inverted interval bounds") {
		t.Errorf("inverted bounds not reported by lower: %+v", ce)
	}
	if !strings.Contains(ce.Error(), "does not schedule") {
		t.Errorf("historical phrasing lost: %q", ce.Error())
	}
}

func mustResMII(t *testing.T, k *ir.Kernel, m *machine.Machine) int {
	t.Helper()
	c := &Compilation{Kernel: k, Machine: m, clock: obs.NewClock()}
	if err := c.runPass(lowerPass{}); err != nil {
		t.Fatal(err)
	}
	return c.MinII
}

func TestPassStatsPopulated(t *testing.T) {
	// Pass walls are self times on one clock, so they sum to no more
	// than the compile's own wall time: nested close-comms and
	// insert-copies runs are not counted twice.
	for _, pair := range []struct {
		kernel string
		m      *machine.Machine
	}{{"DCT", machine.Distributed()}, {"FFT", machine.Clustered(2)}} {
		k := kernels.ByName(pair.kernel).MustKernel()
		t0 := time.Now()
		s, err := Compile(k, pair.m, Options{})
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		var sum time.Duration
		for _, st := range s.Passes {
			sum += st.Wall
		}
		if sum > wall {
			t.Errorf("%s/%s: pass walls sum to %v, more than the %v compile", pair.kernel, pair.m.Name, sum, wall)
		}
	}

	k := kernels.ByName("DCT").MustKernel()
	s, err := Compile(k, machine.Distributed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Passes == nil {
		t.Fatal("Schedule.Passes empty")
	}
	for _, name := range []string{PassLower, PassPrioritize, PassPlace, PassCloseComms, PassRegalloc, PassVerify} {
		st := s.Passes.Get(name)
		if st == nil || st.Runs == 0 {
			t.Errorf("pass %s never ran: %+v", name, st)
			continue
		}
		if st.Wall < 0 {
			t.Errorf("pass %s negative wall %v", name, st.Wall)
		}
	}
	// The preassign pass must not run in the unified configuration.
	if st := s.Passes.Get(PassPreassign); st != nil && st.Runs > 0 {
		t.Errorf("preassign ran without TwoPhase: %+v", st)
	}
	// place steps count placed operations: at least the kernel's ops
	// once per completed attempt.
	if st := s.Passes.Get(PassPlace); st.Steps < len(k.Ops) {
		t.Errorf("place steps %d < %d kernel ops", st.Steps, len(k.Ops))
	}
	// close-comms steps cover at least the winning attempt's routes.
	if st := s.Passes.Get(PassCloseComms); st.Steps < len(s.Routes) {
		t.Errorf("close-comms steps %d < %d routes", st.Steps, len(s.Routes))
	}
	// Canonical order in the rendered table.
	tbl := s.Passes.String()
	if !strings.Contains(tbl, "pass") || !strings.Contains(tbl, "wall") {
		t.Errorf("table header missing:\n%s", tbl)
	}
	if li, pi := strings.Index(tbl, PassLower), strings.Index(tbl, PassPlace); li < 0 || pi < 0 || li > pi {
		t.Errorf("canonical order violated:\n%s", tbl)
	}

	// TwoPhase surfaces the preassign pass.
	s2, err := Compile(k, machine.Distributed(), Options{TwoPhase: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Passes.Get(PassPreassign); st == nil || st.Runs == 0 {
		t.Error("preassign missing under TwoPhase")
	}
}

func TestRegDemandPopulated(t *testing.T) {
	s, err := Compile(kernels.ByName("FIR-INT").MustKernel(), machine.Distributed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.RegDemand) == 0 {
		t.Fatal("RegDemand empty")
	}
	total := 0
	for rf, d := range s.RegDemand {
		if d <= 0 {
			t.Errorf("rf %d demand %d", rf, d)
		}
		total += d
	}
	// Every route parks its value somewhere: total demand covers at
	// least one register per distinct routed (value, file) residence.
	if total == 0 {
		t.Error("zero total demand")
	}
}

func TestPassStatsMerge(t *testing.T) {
	a := PassStats{{Name: "place", Runs: 1, Steps: 5, Wall: 10}}
	b := PassStats{{Name: "place", Runs: 2, Steps: 7, Fails: 1, Wall: 30}, {Name: "lower", Runs: 1}}
	a.Merge(b)
	if st := a.Get("place"); st.Runs != 3 || st.Steps != 12 || st.Fails != 1 || st.Wall != 40 {
		t.Errorf("merge: %+v", st)
	}
	if a.Get("lower") == nil {
		t.Error("new pass not appended")
	}
	if a.Get("nonexistent") != nil {
		t.Error("Get invented a pass")
	}
}

// TestPipelineConfigRoundTrip pins the one spelling of the ablation
// switches: Options.Pipeline renders every combination of the four
// switches as its literal pipeline shape, with the budgets and bounds
// playing no part.
func TestPipelineConfigRoundTrip(t *testing.T) {
	want := []string{
		"prioritize(priority)→place[cost]",
		"prioritize(cycle)→place[cost]",
		"prioritize(priority)→preassign→place[cost]",
		"prioritize(cycle)→preassign→place[cost]",
		"prioritize(priority)→place",
		"prioritize(cycle)→place",
		"prioritize(priority)→preassign→place",
		"prioritize(cycle)→preassign→place",
		"prioritize(priority)→place[cost,regaware]",
		"prioritize(cycle)→place[cost,regaware]",
		"prioritize(priority)→preassign→place[cost,regaware]",
		"prioritize(cycle)→preassign→place[cost,regaware]",
		"prioritize(priority)→place[regaware]",
		"prioritize(cycle)→place[regaware]",
		"prioritize(priority)→preassign→place[regaware]",
		"prioritize(cycle)→preassign→place[regaware]",
	}
	base := Options{MaxII: 12, PermBudget: 99, ScanWindow: 7}
	for i, w := range want {
		o := base
		o.CycleOrder = i&1 != 0
		o.TwoPhase = i&2 != 0
		o.NoCostHeuristic = i&4 != 0
		o.RegisterAware = i&8 != 0
		if got := o.Pipeline(); got != w {
			t.Errorf("switches %04b: Pipeline() = %q, want %q", i, got, w)
		}
	}
}

func TestPortfolioPassStats(t *testing.T) {
	k := kernels.ByName("FFT").MustKernel()
	s, stats, err := CompilePortfolio(context.Background(), k, machine.Central(), Options{}, PortfolioOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Passes) == 0 {
		t.Fatal("PortfolioStats.Passes empty")
	}
	for _, name := range []string{PassLower, PassPrioritize, PassPlace, PassRegalloc, PassVerify} {
		if st := stats.Passes.Get(name); st == nil || st.Runs == 0 {
			t.Errorf("portfolio pass %s never ran", name)
		}
	}
	if len(s.Passes) == 0 || len(s.RegDemand) == 0 {
		t.Error("winner schedule missing pass stats or reg demand")
	}
	for i, v := range stats.Variants {
		if v.Pipeline == "" {
			t.Errorf("variant %d missing pipeline config", i)
		}
	}
}

// TestDiagsInformational checks that a successful compilation carries
// the lower pass's informational diagnostic with interval bounds.
func TestDiagsInformational(t *testing.T) {
	s, err := Compile(kernels.ByName("DCT").MustKernel(), machine.Central(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range s.Diags {
		if d.Pass == PassLower && strings.Contains(d.Msg, "interval search") {
			found = true
		}
	}
	if !found {
		t.Errorf("lower diag missing: %+v", s.Diags)
	}
}
