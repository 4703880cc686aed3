package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/depgraph"
	"repro/internal/ir"
	"repro/internal/machine"
)

// fingerprint captures every piece of engine state the journal is
// responsible for restoring. Failed attempts must leave it unchanged —
// the transactional guarantee behind Fig. 11's reject edge and §4.4's
// repeatability requirement.
func (e *engine) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d values=%d comms=%d journal=%d\n",
		len(e.ops), len(e.values), len(e.comms), len(e.journal))
	for i, pl := range e.place {
		if pl.ok {
			fmt.Fprintf(&b, "p%d=%d@%d\n", i, pl.fu, pl.cycle)
		}
	}
	for _, c := range e.comms {
		fmt.Fprintf(&b, "c%d=%v w=%v/%v/%v pin=%v\n", c.id, c.state, c.hasW, c.wstub, c.children, c.wPinned)
	}
	keys := make([]OperandKey, 0, len(e.operandStub))
	for k := range e.operandStub {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Op != keys[j].Op {
			return keys[i].Op < keys[j].Op
		}
		return keys[i].Slot < keys[j].Slot
	})
	for _, k := range keys {
		or := e.operandStub[k]
		fmt.Fprintf(&b, "r%v=%v pin=%v\n", k, or.stub, or.pinned)
	}
	var lines []string
	for k, v := range e.writesAt {
		lines = append(lines, fmt.Sprintf("w@%v=%d", k, len(v)))
	}
	for k, v := range e.readsAt {
		lines = append(lines, fmt.Sprintf("r@%v=%d", k, len(v)))
	}
	for rf, p := range e.regDemand {
		if p != 0 {
			lines = append(lines, fmt.Sprintf("press%d=%d", rf, p))
		}
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	fmt.Fprintf(&b, "\nfuAt=%d physSlot=%d deposits=%d residences=%d\n",
		len(e.fuAt), len(e.physSlot), depositCount(e), len(e.residences))
	return b.String()
}

func depositCount(e *engine) int {
	n := 0
	for _, d := range e.deposits {
		n += len(d)
	}
	return n
}

// TestRollbackLeavesNoTrace schedules a congested kernel at an
// infeasible initiation interval and checks that every operation
// failure restores the engine exactly.
func TestRollbackLeavesNoTrace(t *testing.T) {
	k := wideLoopKernel(t, 6)
	for _, m := range []*machine.Machine{machine.Clustered(4), machine.Distributed()} {
		for _, opts := range []Options{{}, {RegisterAware: true}} {
			g := depgraph.Build(k, m)
			e := newEngine(k, m, g, opts, 1) // II=1 is infeasible for 6 chains
			order := e.graph.PriorityOrder(ir.LoopBlock)
			failures := 0
			for _, id := range order {
				before := e.fingerprint()
				ok := e.scheduleOp(id)
				if !ok {
					failures++
					if after := e.fingerprint(); after != before {
						t.Fatalf("%s (aware=%v): failed scheduleOp left residue:\n--- before ---\n%s\n--- after ---\n%s",
							m.Name, opts.RegisterAware, before, after)
					}
					break
				}
			}
			if failures == 0 {
				t.Logf("%s: II=1 unexpectedly feasible; no failure to test", m.Name)
			}
		}
	}
}

// TestAttemptRollbackUnderConflict drives attempt directly into
// rejection on a crowded cycle and checks restoration, including the
// copy-insertion paths.
func TestAttemptRollbackUnderConflict(t *testing.T) {
	k := wideLoopKernel(t, 4)
	m := machine.Clustered(4)
	g := depgraph.Build(k, m)
	e := newEngine(k, m, g, Options{}, 2)
	order := e.graph.PriorityOrder(ir.LoopBlock)
	// Schedule as much as possible; at II=2 with 4 chains something
	// eventually rejects placements.
	rejections := 0
	for _, id := range order {
		lo, hi, ok := e.window(id)
		if !ok {
			break
		}
		if hi > lo+8 {
			hi = lo + 8
		}
		placed := false
		for cycle := lo; cycle <= hi && !placed; cycle++ {
			for _, fu := range e.fuCandidates(id, cycle) {
				if !e.fuFree(ir.LoopBlock, fu, cycle) {
					continue
				}
				before := e.fingerprint()
				if e.attempt(id, cycle, fu) {
					placed = true
					break
				}
				rejections++
				if after := e.fingerprint(); after != before {
					t.Fatalf("attempt rejection left residue for op %d:\n--- before ---\n%s\n--- after ---\n%s", id, before, after)
				}
			}
		}
		if !placed {
			break
		}
	}
	if rejections == 0 {
		t.Skip("no rejections triggered at this II; nothing exercised")
	}
	t.Logf("verified %d rejected attempts restored state exactly", rejections)
}

// TestCommittedPlacementEmptiesJournal pins the journal bound: nothing
// rolls back past an accepted top-level placement, so scheduleOp
// empties the journal on success and it never holds more than one
// placement's records. Intervals are tried upward from 1, op by op, so
// the infeasible ones also exercise the rejection path, whose residue
// check is the one TestRollbackLeavesNoTrace makes.
func TestCommittedPlacementEmptiesJournal(t *testing.T) {
	k := wideLoopKernel(t, 6)
	for _, m := range []*machine.Machine{machine.Clustered(4), machine.Distributed()} {
		g := depgraph.Build(k, m)
		feasible := false
		for ii := 1; ii < 64 && !feasible; ii++ {
			if !g.RecMIIFeasible(ii) {
				continue
			}
			e := newEngine(k, m, g, Options{}, ii)
			feasible = true
			for _, block := range []ir.BlockKind{ir.LoopBlock, ir.PreambleBlock} {
				for _, id := range e.graph.PriorityOrder(block) {
					before := e.fingerprint()
					if e.scheduleOp(id) {
						if n := len(e.journal); n != 0 {
							t.Fatalf("%s II=%d: op %d committed with %d journal records left", m.Name, ii, id, n)
						}
						continue
					}
					if after := e.fingerprint(); after != before {
						t.Fatalf("%s II=%d: failed scheduleOp left residue:\n--- before ---\n%s\n--- after ---\n%s",
							m.Name, ii, before, after)
					}
					feasible = false
					break
				}
				if !feasible {
					break
				}
			}
		}
		if !feasible {
			t.Fatalf("%s: no feasible interval below 64", m.Name)
		}
	}
}
