package core

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/machine"
)

// This file implements copy insertion (§4.3 step 5): when a closing
// communication's write stub and read stub do not access the same
// register file, a copy operation is inserted — splitting the original
// communication into two (Fig. 21/22) — and scheduled like any other
// operation, restricted to the communication's copy range (Fig. 23).
// Because the copy's own communications close through the normal
// machinery, additional copies are inserted recursively as needed.

// maxCopyDepth bounds the recursive splitting; the deepest chain a
// sane machine needs equals its register-file copy diameter.
const maxCopyDepth = 6

// insertCopies is the clocked insert-copies pipeline stage: each copy
// chain bridged is one step, each range or depth exhaustion one
// failure.
func (e *engine) insertCopies(c *comm, preferLate bool) bool {
	ok := stage(e.clock, e.tracer, PassInsertCopies, e.ii, func() bool { return e.insertCopyChain(c, preferLate) })
	if ok {
		e.clock.Step(PassInsertCopies, 1)
	}
	return ok
}

// insertCopyChain bridges communication c's pinned stubs. The value
// sits in c.wstub.RF and must reach the operand's pinned read file.
// preferLate places copies as late as their range allows instead of as
// early as possible — the §7 spill shape, shrinking the value's
// residence in the destination file when register-aware routing found
// it hot.
func (e *engine) insertCopyChain(c *comm, preferLate bool) bool {
	if e.depth >= maxCopyDepth {
		return false
	}
	e.depth++
	defer func() { e.depth-- }()

	useKey := OperandKey{Op: c.use, Slot: c.slot}
	rfW := c.wstub.RF
	rfR := e.operandStub[useKey].stub.RF
	if rfW == rfR {
		// Closed without finishRoute: no deposit is recorded here, but
		// the residence still holds registers.
		e.setCommState(c, commClosed)
		e.trackPressure(c)
		return true
	}

	// The copy range (Fig. 23): the copy must issue after the write
	// completes and early enough for its own result to reach the read.
	// Cross-block communications place copies in the write operation's
	// block — the preamble — whose end is extensible ("the copy range
	// is all cycles in the write operation's basic block after the
	// write operation completes").
	lo := e.completionFlat(c.def) + 1
	var hi int
	if e.crossBlock(c) {
		hi = lo + e.copyScanLimit()
	} else {
		block := e.ops[c.use].Block
		rflat := e.place[c.use].cycle + c.distance*e.blockII(block)
		hi = rflat - e.mach.Latency(ir.Copy)
	}
	if hi < lo {
		return false
	}

	for _, choice := range e.mach.CopyStepFUs(rfW, rfR) {
		mark := e.mark()
		copyID := e.addCopy(c, choice)
		if e.scheduleCopy(copyID, choice, lo, hi, preferLate) {
			e.stats.CopiesInserted++
			e.traceCopy(c, copyID)
			return true
		}
		e.rollback(mark)
	}
	return false
}

// copyScanLimit bounds how far into the preamble's extensible tail a
// cross-block copy is searched for.
func (e *engine) copyScanLimit() int {
	if e.opts.ScanWindow > 0 {
		return e.opts.ScanWindow
	}
	return 256
}

// addCopy materializes the Fig. 21 transformation: a copy operation in
// the def's block, reading the communicated value through input
// choice.Slot of choice.FU, plus the two child communications, with the
// parent marked split. The parent's pinned write stub is inherited by
// the def→copy child; the copy→use child inherits the operand (and its
// pinned read stub) and the loop distance.
func (e *engine) addCopy(c *comm, choice machine.CopyChoice) ir.OpID {
	defOp := e.ops[c.def]
	id := ir.OpID(len(e.ops))
	newVal := ir.ValueID(len(e.values))
	name := fmt.Sprintf("copy%d.v%d", id, c.value)
	op := &ir.Op{
		ID:     id,
		Opcode: ir.Copy,
		Args: []ir.Operand{{
			Kind: ir.OperandValue,
			Srcs: []ir.Src{{Value: c.value, Distance: 0}},
		}},
		Result: newVal,
		Block:  defOp.Block,
		Name:   name,
	}
	e.ops = append(e.ops, op)
	e.values = append(e.values, &ir.Value{ID: newVal, Name: name, Def: id})
	e.place = append(e.place, placement{})
	e.commsFrom = append(e.commsFrom, nil)
	e.commsTo = append(e.commsTo, nil)
	e.log(func() {
		e.ops = e.ops[:id]
		e.values = e.values[:newVal]
		e.place = e.place[:id]
		e.commsFrom = e.commsFrom[:id]
		e.commsTo = e.commsTo[:id]
	})

	// Steer the copy's operand through the chosen physical input.
	opnd := OperandKey{Op: id, Slot: 0}
	e.physSlot[opnd] = choice.Slot
	e.log(func() { delete(e.physSlot, opnd) })

	// The copy's result carries the same original value; deposits of it
	// serve other consumers of that value.
	e.roots[newVal] = e.rootValue(c.value)
	e.log(func() { delete(e.roots, newVal) })

	c1 := e.newComm(c.def, id, 0, 0, c.value, 0, c.id)
	c2 := e.newComm(id, c.use, c.slot, c.srcIndex, newVal, c.distance, c.id)
	e.setCommState(c, commSplit)
	old := c.children
	c.children = [2]CommID{c1, c2}
	e.log(func() { c.children = old })

	// The def is scheduled, so the def→copy child's write stub position
	// is already fixed; it inherits the parent's pinned stub.
	e.setCommW(e.comms[c1], c.wstub, true)
	e.appendWritesAt(e.completionSlotKey(c.def), c1)
	return id
}

// scheduleCopy places the copy within its range on the chosen unit,
// calling the normal accept/reject attempt: "The copy operation is
// scheduled just like any other operation, except that it must be
// scheduled on a cycle in the copy range" (§4.3). Both child
// communications close inside the attempt. preferLate reverses the
// scan so the copy lands as close to the reader as possible.
func (e *engine) scheduleCopy(id ir.OpID, choice machine.CopyChoice, lo, hi int, preferLate bool) bool {
	block := e.ops[id].Block
	tryCycle := func(cycle int) bool {
		return e.fuFree(block, choice.FU, cycle) && e.attempt(id, cycle, choice.FU)
	}
	if preferLate {
		for cycle := hi; cycle >= lo; cycle-- {
			if e.cancelled() {
				return false
			}
			if tryCycle(cycle) {
				return true
			}
		}
		return false
	}
	for cycle := lo; cycle <= hi; cycle++ {
		if e.cancelled() {
			return false
		}
		if tryCycle(cycle) {
			return true
		}
	}
	return false
}
