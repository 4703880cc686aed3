package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ir"
	"repro/internal/machine"
)

// Assignment is the final placement of one operation.
type Assignment struct {
	FU        machine.FUID
	Cycle     int // flat issue cycle within the op's block timeline
	Scheduled bool
}

// Route is the final allocation of one communication: the write stub,
// the read stub, and — for communications that needed copies — the copy
// operations between them (§4.2, Fig. 12). Routes are reported for leaf
// communications: a split communication appears as its two halves, each
// with its own route.
type Route struct {
	Def      ir.OpID
	Use      ir.OpID
	Slot     int
	Value    ir.ValueID
	Distance int
	W        machine.WriteStub
	R        machine.ReadStub
	// Parent is the communication this route descends from when copies
	// were inserted; noComm (-1) for original communications.
	Parent CommID
	ID     CommID
}

// Schedule is the output of Compile: a complete VLIW schedule with all
// interconnect allocated.
type Schedule struct {
	Kernel  *ir.Kernel
	Machine *machine.Machine

	// Ops extends the kernel's operations with inserted copies; Values
	// likewise. Assignments is indexed by op id.
	Ops         []*ir.Op
	Values      []*ir.Value
	Assignments []Assignment

	// II is the loop initiation interval — the paper's performance
	// metric ("speedup was calculated as the inverse of the schedule
	// length of that loop", §5). PreambleLen and LoopSpan are the flat
	// lengths of the two block schedules.
	II          int
	PreambleLen int
	LoopSpan    int

	Routes []Route
	Reads  map[OperandKey]machine.ReadStub

	Stats Stats

	// Passes holds the per-pass instrumentation of the whole
	// compilation (every initiation-interval attempt included), in
	// canonical pipeline order; Diags the informational diagnostics the
	// passes emitted. Neither influences the schedule itself.
	Passes PassStats
	Diags  []Diag

	// RegDemand is the implicit per-file register demand of the
	// schedule (§7): the registers communication scheduling allocated
	// by routing values through each file, computed by the regalloc
	// pass with modulo-variable-expansion accounting.
	RegDemand map[machine.RFID]int

	// Degraded names the degradation-ladder rung that produced this
	// schedule, empty when the primary configuration won (the common
	// case, and always when Options.Degrade is nil).
	Degraded string
}

// buildSchedule freezes the engine state into a Schedule. It panics on
// internal invariant violations (unclosed communications, unplaced
// operations): Compile only calls it after both blocks scheduled.
func (e *engine) buildSchedule() *Schedule {
	s := &Schedule{
		Kernel:      e.kern,
		Machine:     e.mach,
		Ops:         e.ops,
		Values:      e.values,
		Assignments: make([]Assignment, len(e.ops)),
		II:          e.ii,
		Reads:       make(map[OperandKey]machine.ReadStub),
		Stats:       e.stats,
	}
	for i, pl := range e.place {
		if !pl.ok {
			panic(fmt.Sprintf("core: op %s left unscheduled", e.opString(ir.OpID(i))))
		}
		s.Assignments[i] = Assignment{FU: pl.fu, Cycle: pl.cycle, Scheduled: true}
		flat := e.completionFlat(ir.OpID(i)) + 1
		if e.ops[i].Block == ir.LoopBlock {
			if flat > s.LoopSpan {
				s.LoopSpan = flat
			}
		} else if flat > s.PreambleLen {
			s.PreambleLen = flat
		}
	}
	for _, c := range e.comms {
		switch c.state {
		case commSplit:
			continue
		case commClosed:
		default:
			panic(fmt.Sprintf("core: communication v%d %s->%s not closed (%v)",
				c.value, e.opString(c.def), e.opString(c.use), c.state))
		}
		key := OperandKey{Op: c.use, Slot: c.slot}
		or, haveR := e.operandStub[key]
		if !haveR || !c.hasW {
			panic("core: closed communication missing stubs")
		}
		s.Reads[key] = or.stub
		s.Routes = append(s.Routes, Route{
			Def: c.def, Use: c.use, Slot: c.slot, Value: c.value,
			Distance: c.distance, W: c.wstub, R: or.stub,
			Parent: c.parent, ID: c.id,
		})
	}
	sort.Slice(s.Routes, func(i, j int) bool { return s.Routes[i].ID < s.Routes[j].ID })
	return s
}

// OpsInBlock returns all scheduled op ids of a block, copies included,
// ordered by cycle then unit.
func (s *Schedule) OpsInBlock(b ir.BlockKind) []ir.OpID {
	var ids []ir.OpID
	for _, op := range s.Ops {
		if op.Block == b {
			ids = append(ids, op.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		ai, aj := s.Assignments[ids[i]], s.Assignments[ids[j]]
		if ai.Cycle != aj.Cycle {
			return ai.Cycle < aj.Cycle
		}
		return ai.FU < aj.FU
	})
	return ids
}

// Dump renders the schedule as a cycle × functional-unit table per
// block, in the style of Fig. 7, followed by the route listing.
func (s *Schedule) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %s on %s: II=%d preamble=%d loopspan=%d copies=%d\n",
		s.Kernel.Name, s.Machine.Name, s.II, s.PreambleLen, s.LoopSpan,
		len(s.Ops)-len(s.Kernel.Ops))
	for _, blk := range []ir.BlockKind{ir.PreambleBlock, ir.LoopBlock} {
		ids := s.OpsInBlock(blk)
		if len(ids) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%v:\n", blk)
		for _, id := range ids {
			a := s.Assignments[id]
			op := s.Ops[id]
			name := op.Name
			if name == "" {
				name = fmt.Sprintf("op%d", id)
			}
			fmt.Fprintf(&b, "  cycle %3d  %-6s %-8s %s\n",
				a.Cycle, s.Machine.FU(a.FU).Name, op.Opcode.String(), name)
		}
	}
	fmt.Fprintf(&b, "routes:\n")
	for _, r := range s.Routes {
		fmt.Fprintf(&b, "  v%-3d op%d->op%d.%d  %v  ->  %v\n",
			r.Value, r.Def, r.Use, r.Slot, r.W, r.R)
	}
	return b.String()
}
