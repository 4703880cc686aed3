package core

import (
	"testing"

	"repro/internal/depgraph"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rules"
)

// TestSolverHotPathZeroAlloc pins the zero-allocation contract of the
// §4.3/§4.4 solver hot path: once an engine's scratch state is warm,
// solveWrites and solveReads allocate nothing. Candidate lists come
// interned from the machine's routing index or carved from the reused
// arena, the flex/choice working sets reuse their capacity, and the
// per-solve dedup is epoch-stamped rather than a fresh map. The undo
// journal holds at most one placement's records (scheduleOp empties it
// on every committed placement) and keeps its capacity; each measured
// solve is bracketed by mark/rollback, the same discipline attempt
// uses, so it never grows past its warmed capacity.
func TestSolverHotPathZeroAlloc(t *testing.T) {
	k := wideLoopKernel(t, 4)
	for _, m := range []*machine.Machine{machine.Central(), machine.Clustered(4), machine.Distributed()} {
		g := depgraph.Build(k, m)
		var e *engine
		for ii := 1; ii < 64 && e == nil; ii++ {
			if !g.RecMIIFeasible(ii) {
				continue
			}
			e, _, _ = tryII(k, m, g, Options{}, ii, nil, nil, &Stats{}, obs.NewClock(), nil)
		}
		if e == nil {
			t.Fatalf("%s: did not schedule", m.Name)
		}
		wkeys := make([]tKey, 0, len(e.writesAt))
		for key := range e.writesAt {
			wkeys = append(wkeys, key)
		}
		rkeys := make([]tKey, 0, len(e.readsAt))
		for key := range e.readsAt {
			rkeys = append(rkeys, key)
		}
		resolve := func() {
			for _, key := range wkeys {
				mk := e.mark()
				if !e.solveWrites(key, noComm, 0) {
					t.Fatalf("%s: write solve for %v failed", m.Name, key)
				}
				e.rollback(mk)
			}
			for _, key := range rkeys {
				mk := e.mark()
				if !e.solveReads(key, noOperand, 0) {
					t.Fatalf("%s: read solve for %v failed", m.Name, key)
				}
				e.rollback(mk)
			}
		}
		// Warm the scratch capacities (arena, flex, journal, marks) and
		// the first-request promotion set.
		for i := 0; i < 3; i++ {
			resolve()
		}
		if avg := testing.AllocsPerRun(10, resolve); avg != 0 {
			t.Errorf("%s: solver hot path allocates %.1f times per full re-solve, want 0", m.Name, avg)
		}
	}
}

// TestAttemptLayerZeroAlloc extends the zero-allocation contract from
// the solver to the attempt layer that drives it. The loop is scheduled
// once to find the last operation whose placement closed every
// communication directly — no copy inserted and no deposit reused, the
// two cold paths that allocate new operations or communications. A
// second, identical run stops just before it. On that warm engine the
// §4.6 cost of every (operation, candidate unit) pair and an
// attempt/rollback cycle of the held-out placement allocate nothing.
func TestAttemptLayerZeroAlloc(t *testing.T) {
	k := wideLoopKernel(t, 4)
	for _, m := range []*machine.Machine{machine.Central(), machine.Clustered(4), machine.Distributed()} {
		g := depgraph.Build(k, m)
		order := g.PriorityOrder(ir.LoopBlock)
		ii, held := 0, -1
		var pl placement
		for try := 1; try < 64 && held < 0; try++ {
			if !g.RecMIIFeasible(try) {
				continue
			}
			full := newEngine(k, m, g, Options{}, try)
			direct := -1
			for i, id := range order {
				comms := len(full.comms)
				if !full.scheduleOp(id) {
					direct = -1
					break
				}
				if len(full.comms) == comms {
					direct = i
				}
			}
			if direct >= 0 {
				ii, held, pl = try, direct, full.place[order[direct]]
			}
		}
		if held < 0 {
			t.Fatalf("%s: no directly routed placement in a feasible schedule", m.Name)
		}
		e := newEngine(k, m, g, Options{}, ii)
		for _, id := range order[:held] {
			if !e.scheduleOp(id) {
				t.Fatalf("%s: replay of op %d failed", m.Name, id)
			}
		}

		cost := func() {
			for _, op := range e.ops {
				for _, fu := range e.mach.UnitsFor(op.Opcode.Class()) {
					e.commCost(op.ID, fu, e.place[op.ID].cycle)
				}
			}
		}
		cost()
		if avg := testing.AllocsPerRun(10, cost); avg != 0 {
			t.Errorf("%s: commCost over every (op, unit) allocates %.1f times, want 0", m.Name, avg)
		}

		id := order[held]
		place := func() {
			mk, comms := e.mark(), len(e.comms)
			if !e.attempt(id, pl.cycle, pl.fu) || len(e.comms) != comms {
				t.Fatalf("%s: op %d at %d on unit %d no longer routes directly", m.Name, id, pl.cycle, pl.fu)
			}
			e.rollback(mk)
		}
		for i := 0; i < 3; i++ {
			place()
		}
		if avg := testing.AllocsPerRun(10, place); avg != 0 {
			t.Errorf("%s: attempt/rollback of a directly routed placement allocates %.1f times, want 0", m.Name, avg)
		}
	}
}

// TestOccupancyBitsetZeroAlloc pins the epoch-stamped bitset path of
// rules.Occupancy directly: once the undo journal and the rfw entry
// list are warm, a full Reset / PlaceWrite / PlaceRead / Undo cycle —
// including epoch-lazy word clearing and conflicting re-claims —
// allocates nothing.
func TestOccupancyBitsetZeroAlloc(t *testing.T) {
	m := machine.Distributed()
	o := rules.NewOccupancy(m)
	// Greedily pick resource-disjoint stubs so every fresh-epoch claim
	// succeeds deterministically; conflicts are then provoked on purpose.
	usedBus := map[machine.BusID]bool{}
	usedWP := map[machine.WPID]bool{}
	wstubs := make([]machine.WriteStub, 0, 8)
	for fu := 0; fu < len(m.FUs) && len(wstubs) < cap(wstubs); fu++ {
		for _, s := range m.WriteStubs(machine.FUID(fu)) {
			if !usedBus[s.Bus] && !usedWP[s.Port] {
				usedBus[s.Bus], usedWP[s.Port] = true, true
				wstubs = append(wstubs, s)
				break
			}
		}
	}
	usedRP := map[machine.RPID]bool{}
	rstubs := make([]machine.ReadStub, 0, 8)
	for fu := 0; fu < len(m.FUs) && len(rstubs) < cap(rstubs); fu++ {
		for _, s := range m.ReadStubs(machine.FUID(fu), 0) {
			if !usedBus[s.Bus] && !usedRP[s.Port] {
				usedBus[s.Bus], usedRP[s.Port] = true, true
				rstubs = append(rstubs, s)
				break
			}
		}
	}
	if len(wstubs) == 0 || len(rstubs) == 0 {
		t.Fatal("distributed machine yields no routing stubs")
	}
	undo := make([]rules.Undo, 0, 64)
	cycle := func() {
		o.Reset()
		undo = undo[:0]
		ok := true
		for i, s := range wstubs {
			v := rules.Value{ID: ir.ValueID(i), Uniq: int32(i)}
			undo, ok = o.PlaceWrite(s, v, undo)
			if !ok {
				t.Fatalf("write stub %d rejected on a fresh epoch", i)
			}
			// An identical re-claim shares; a different value conflicts
			// and must roll back cleanly — both on the claimed-bit path.
			if undo, ok = o.PlaceWrite(s, v, undo); !ok {
				t.Fatalf("identical write re-claim %d rejected", i)
			}
			if undo, ok = o.PlaceWrite(s, rules.Value{ID: ir.ValueID(i + 100)}, undo); ok {
				t.Fatalf("conflicting write claim %d accepted", i)
			}
		}
		for i, s := range rstubs {
			v := rules.Value{ID: ir.ValueID(i), Uniq: int32(i)}
			if undo, ok = o.PlaceRead(s, v, int32(i+1), undo); !ok {
				t.Fatalf("read stub %d rejected on a fresh epoch", i)
			}
		}
		o.Undo(undo)
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Errorf("bitset occupancy cycle allocates %.1f times, want 0", avg)
	}
}
