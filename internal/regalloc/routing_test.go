// Package regalloc_test holds the end-to-end tests of §7's
// register-aware routing (core.Options.RegisterAware). The register
// accounting itself lives in internal/core (the residence account in
// pressure.go); this directory has no non-test code.
package regalloc_test

import (
	"testing"

	commsched "repro"
	"repro/internal/ir"
	"repro/internal/vliwsim"
)

// pipelineKernel builds a loop whose loaded value x stays live across
// two multiplies, inflating register demand at short intervals.
func pipelineKernel() *ir.Kernel {
	b := ir.NewBuilder("pipe")
	iv, _ := b.InductionVar("i", 0, 1)
	b.Loop()
	x := b.Emit(ir.Load, "x", iv, b.Const(0))
	p := b.Emit(ir.Mul, "p", b.Val(x), b.Const(3))
	q := b.Emit(ir.Mul, "q", b.Val(p), b.Const(5))
	r := b.Emit(ir.Add, "r", b.Val(q), b.Val(x))
	b.Emit(ir.Store, "", b.Val(r), iv, b.Const(0))
	return b.MustFinish()
}

// compileBoth compiles k on m with default and register-aware routing
// and verifies the register-aware schedule.
func compileBoth(t *testing.T, k *ir.Kernel, m *commsched.Machine) (base, aware *commsched.Schedule) {
	t.Helper()
	base, err := commsched.Compile(k, m, commsched.Options{})
	if err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	aware, err = commsched.Compile(k, m, commsched.Options{RegisterAware: true})
	if err != nil {
		t.Fatalf("%s register-aware: %v", m.Name, err)
	}
	if err := commsched.Verify(aware); err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	return base, aware
}

// TestRegisterAwareRoutingReducesOverflow exercises §7's proposed
// improvement end to end: on the distributed machine's 8-entry files,
// register-aware routing strictly lowers the worst overflow of default
// routing, and its schedule still computes what the interpreter does.
func TestRegisterAwareRoutingReducesOverflow(t *testing.T) {
	k := pipelineKernel()
	k.TripCount = 10
	base, aware := compileBoth(t, k, commsched.Distributed())
	bw, aw := commsched.WorstOverflow(base), commsched.WorstOverflow(aware)
	t.Logf("worst overflow %d -> %d registers (II %d -> %d)", bw, aw, base.II, aware.II)
	if aw >= bw {
		t.Errorf("register-aware routing did not reduce overflow: %d -> %d", bw, aw)
	}

	mem := map[int64]int64{}
	for i := int64(0); i < 16; i++ {
		mem[i] = 3 * i
	}
	want, err := vliwsim.Interpret(k, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := commsched.Simulate(aware, commsched.SimConfig{InitMem: mem})
	if err != nil {
		t.Fatal(err)
	}
	for addr, w := range want {
		if got.Mem[addr] != w {
			t.Fatalf("mem[%d] = %d, want %d", addr, got.Mem[addr], w)
		}
	}
}

// TestRegisterAwareOnSuiteKernel checks the option on the clustered and
// central machines: the schedule stays valid and the worst overflow
// never grows.
func TestRegisterAwareOnSuiteKernel(t *testing.T) {
	k := pipelineKernel()
	for _, m := range []*commsched.Machine{commsched.Clustered4(), commsched.Central()} {
		base, aware := compileBoth(t, k, m)
		if bw, aw := commsched.WorstOverflow(base), commsched.WorstOverflow(aware); aw > bw {
			t.Errorf("%s: register-aware routing took the worst overflow from %d to %d", m.Name, bw, aw)
		}
	}
}
