package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/depgraph"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestCompileEmitsTraceEvents pins the tentpole contract: a traced
// compilation emits events at every decision-point family, the stream
// is balanced and exportable, and — crucially — tracing does not change
// the schedule.
func TestCompileEmitsTraceEvents(t *testing.T) {
	// FFT on the distributed machine exercises every event family:
	// placements are rejected (rollbacks) and copies are inserted.
	k := kernels.ByName("FFT").MustKernel()
	m := machine.Distributed()

	plain, err := Compile(k, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	traced, err := Compile(k, m, Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fingerprint() != traced.Fingerprint() {
		t.Fatal("tracing perturbed the schedule")
	}
	if rec.Len() == 0 {
		t.Fatal("no events recorded")
	}

	byKind := make(map[obs.Kind]int)
	for _, ev := range rec.Events() {
		byKind[ev.Kind]++
	}
	for _, kind := range []obs.Kind{
		obs.KindPassBegin, obs.KindPassEnd,
		obs.KindIIBegin, obs.KindIIEnd,
		obs.KindOpPlace,
		obs.KindCommOpen, obs.KindCommClose,
		obs.KindStubWrite, obs.KindStubRead,
		obs.KindPermAttempt, obs.KindPermAccept,
		obs.KindCopyInsert, obs.KindRollback,
	} {
		if byKind[kind] == 0 {
			t.Errorf("no %v events emitted", kind)
		}
	}
	// Begin/end kinds must balance — the Chrome export depends on it.
	if byKind[obs.KindPassBegin] != byKind[obs.KindPassEnd] {
		t.Errorf("pass begin/end unbalanced: %d vs %d",
			byKind[obs.KindPassBegin], byKind[obs.KindPassEnd])
	}
	if byKind[obs.KindIIBegin] != byKind[obs.KindIIEnd] {
		t.Errorf("II begin/end unbalanced: %d vs %d",
			byKind[obs.KindIIBegin], byKind[obs.KindIIEnd])
	}
	// Permutation steps in the trace must agree with the Stats counter.
	steps := byKind[obs.KindPermAttempt]
	if steps != traced.Stats.PermSteps {
		t.Errorf("trace has %d perm attempts, Stats.PermSteps=%d", steps, traced.Stats.PermSteps)
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("compile trace fails schema validation: %v", err)
	}
}

// TestTraceDeterministic pins bit-identical traces across repeated
// sequential compilations.
func TestTraceDeterministic(t *testing.T) {
	k := accLoopKernel(t)
	m := machine.Clustered(2)
	export := func() []byte {
		rec := obs.NewRecorder()
		if _, err := Compile(k, m, Options{Tracer: rec}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteChromeTrace(&buf, rec.Events()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("trace differs across identical sequential compilations")
	}
}

// TestPortfolioTraceSplice pins the portfolio's trace contract: the
// merged stream contains the variant lifecycle plus the spliced
// per-attempt streams, is schema-valid, and tracing does not change
// the winner.
func TestPortfolioTraceSplice(t *testing.T) {
	k := accLoopKernel(t)
	m := machine.Clustered(2)
	plain, _, err := CompilePortfolio(context.Background(), k, m, Options{}, PortfolioOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	traced, _, err := CompilePortfolio(context.Background(), k, m, Options{Tracer: rec}, PortfolioOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Fingerprint() != traced.Fingerprint() {
		t.Fatal("tracing perturbed the portfolio winner")
	}
	var begins, wins int
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.KindVariantBegin:
			begins++
		case obs.KindVariantWin:
			wins++
		}
	}
	if begins != 5 || wins != 1 {
		t.Fatalf("variant lifecycle wrong: %d begins, %d wins", begins, wins)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("portfolio trace fails schema validation: %v", err)
	}
}

// TestDisabledTracerAllocatesNothing is the satellite CI guard: with a
// nil tracer, no emit helper may construct an event or allocate. The
// helpers are exactly the ones on the hot scheduling path.
func TestDisabledTracerAllocatesNothing(t *testing.T) {
	k := accLoopKernel(t)
	m := machine.Central()
	g := depgraph.Build(k, m)
	e := newEngine(k, m, g, Options{}, 4)
	if e.tracer != nil {
		t.Fatal("tracer unexpectedly set")
	}
	c := &comm{id: 1}
	key := OperandKey{Op: 0, Slot: 0}
	allocs := testing.AllocsPerRun(100, func() {
		e.traceIIBegin()
		e.traceIIEnd(true)
		e.traceOpPlace(0, 0, 3)
		e.traceCommW(c, machine.WriteStub{}, false, false)
		e.traceStubRead(key, machine.ReadStub{}, false)
		e.traceCommState(c, commClosed)
		e.tracePerm(obs.KindPermAttempt, 0, 1)
		e.traceCopy(c, 0)
		e.traceRollback(5)
		stage(e.clock, e.tracer, PassCloseComms, e.ii, func() bool { return true })
	})
	if allocs != 0 {
		t.Fatalf("disabled-tracer path allocates %v times per run, want 0", allocs)
	}
	comp := &Compilation{Kernel: k, Machine: m, clock: obs.NewClock()}
	allocs = testing.AllocsPerRun(100, func() {
		stage(comp.clock, comp.Opts.Tracer, PassPlace, comp.II, func() bool { return true })
	})
	if allocs != 0 {
		t.Fatalf("disabled pass-trace path allocates %v times per run, want 0", allocs)
	}
}

// TestUtilizationReport pins the utilization reporter: totals match
// the machine's resource inventory, occupancy stays within bounds, the
// scheduled units show up busy, and the text heatmap renders.
func TestUtilizationReport(t *testing.T) {
	k := accLoopKernel(t)
	m := machine.Distributed()
	s, err := Compile(k, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := s.InterconnectUtilization()
	wantRows := len(m.FUs) + len(m.Buses) + len(m.ReadPorts) + len(m.WritePorts)
	if len(u.Resources) != wantRows {
		t.Fatalf("%d resource rows, want %d", len(u.Resources), wantRows)
	}
	busyFUs, busyBuses := 0, 0
	for _, r := range u.Resources {
		if r.LoopBusy < 0 || r.LoopBusy > r.LoopSlots || r.PreBusy < 0 || r.PreBusy > r.PreSlots {
			t.Errorf("%s %s: occupancy out of bounds: %+v", r.Kind, r.Name, r)
		}
		if r.LoopSlots != s.II {
			t.Errorf("%s %s: loop slots %d, want II=%d", r.Kind, r.Name, r.LoopSlots, s.II)
		}
		if r.PreSlots != s.PreambleLen {
			t.Errorf("%s %s: preamble slots %d, want %d", r.Kind, r.Name, r.PreSlots, s.PreambleLen)
		}
		if r.Kind == "fu" && r.LoopBusy+r.PreBusy > 0 {
			busyFUs++
		}
		if r.Kind == "bus" && r.LoopBusy+r.PreBusy > 0 {
			busyBuses++
		}
	}
	if busyFUs == 0 {
		t.Error("no functional unit reported busy")
	}
	if busyBuses == 0 {
		t.Error("no bus reported busy (every route crosses one)")
	}
	text := u.String()
	for _, want := range []string{"utilization", "fu", "bus", "read-port", "write-port", "█"} {
		if !strings.Contains(text, want) {
			t.Errorf("heatmap missing %q:\n%s", want, text)
		}
	}
	// Deterministic: same schedule, same report.
	if s.InterconnectUtilization().String() != text {
		t.Error("utilization report not deterministic")
	}
}
