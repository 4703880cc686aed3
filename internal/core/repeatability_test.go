package core

import (
	"testing"

	"repro/internal/depgraph"
	"repro/internal/ir"
	"repro/internal/obs"
)

// TestPermutationRepeatability checks the second §4.4 requirement on
// the stub-permutation search: "It can always find a permutation of
// stubs for a given set of communications if it ever finds a
// permutation of stubs for that set of communications (i.e. it is
// repeatable)." After a block schedules, re-solving every cycle must
// succeed — the search may pick different stubs, but never paint itself
// into failure on a set it already solved.
func TestPermutationRepeatability(t *testing.T) {
	kernels := []*ir.Kernel{accLoopKernel(t), wideLoopKernel(t, 4)}
	for _, k := range kernels {
		for _, m := range allMachines() {
			g := depgraph.Build(k, m)
			// Keep the winning attempt's engine so the solver state
			// stays alive; tryII runs the real prioritize and place
			// passes.
			var e *engine
			for ii := 1; ii < 64; ii++ {
				if !g.RecMIIFeasible(ii) {
					continue
				}
				if e, _, _ = tryII(k, m, g, Options{}, ii, nil, nil, &Stats{}, obs.NewClock(), nil); e != nil {
					break
				}
			}
			if e == nil {
				t.Fatalf("%s/%s: did not schedule", k.Name, m.Name)
			}
			for key := range e.writesAt {
				if !e.solveWrites(key, noComm, 0) {
					t.Errorf("%s/%s: write permutation for %v not repeatable", k.Name, m.Name, key)
				}
			}
			for key := range e.readsAt {
				if !e.solveReads(key, noOperand, 0) {
					t.Errorf("%s/%s: read permutation for %v not repeatable", k.Name, m.Name, key)
				}
			}
		}
	}
}

// TestFirstRequirement checks §4.4's first requirement: "It can find a
// read/write stub for all communications to/from an operation in the
// absence of other communications" — an operation placed alone on an
// empty machine always passes communication scheduling.
func TestFirstRequirement(t *testing.T) {
	for _, m := range allMachines() {
		for _, cls := range []ir.Opcode{ir.Add, ir.Mul, ir.Load} {
			b := ir.NewBuilder("solo")
			b.Loop()
			var v ir.ValueID
			switch cls {
			case ir.Load:
				v = b.Emit(ir.Load, "x", b.Const(0), b.Const(0))
			default:
				v = b.Emit(cls, "x", b.Const(1), b.Const(2))
			}
			b.Emit(ir.Store, "", b.Val(v), b.Const(9), b.Const(0))
			k := b.MustFinish()
			g := depgraph.Build(k, m)
			e := newEngine(k, m, g, Options{}, 8)
			id := k.Loop[0]
			units := m.UnitsFor(k.Ops[id].Opcode.Class())
			placed := false
			for _, fu := range units {
				if e.attempt(id, 0, fu) {
					placed = true
					break
				}
			}
			if !placed {
				t.Errorf("%s: solo %v rejected on an empty machine", m.Name, cls)
			}
		}
	}
}
