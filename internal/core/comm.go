// Package core implements communication scheduling (Mattson et al.,
// ASPLOS 2000) integrated with a unified assign-and-schedule VLIW
// scheduler, for machines in which functional units reach multiple
// register files over shared buses and shared register-file ports.
//
// A communication is the use of one operation's result as an operand of
// another operation (§3). Communication scheduling decomposes each
// communication into a write stub, zero or more copy operations, and a
// read stub (§4.2, Fig. 12), allocating them incrementally as the two
// endpoint operations are scheduled (Fig. 14): the communication opens
// with a tentative stub when the first endpoint is placed — and that
// stub may still be re-chosen while other operations are scheduled — and
// closes with a full route when the second endpoint is placed, inserting
// and scheduling copy operations if the two stubs do not share a
// register file (§4.3).
package core

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/machine"
)

// CommID identifies a communication within one scheduling session.
type CommID int

// noComm is the absent-communication sentinel.
const noComm CommID = -1

type commState int

const (
	// commDormant: neither endpoint scheduled yet.
	commDormant commState = iota
	// commOpen: exactly one endpoint scheduled; its stub is tentative
	// and may be re-chosen ("communication scheduling may change the
	// stub assigned to the open communication", §4.2).
	commOpen
	// commClosed: both endpoints scheduled and a route assigned; the
	// stubs "cannot be changed" (§4.2).
	commClosed
	// commSplit: replaced by two child communications around an
	// inserted copy operation (Fig. 22).
	commSplit
)

// String names the state for diagnostics.
func (s commState) String() string {
	switch s {
	case commDormant:
		return "dormant"
	case commOpen:
		return "open"
	case commClosed:
		return "closed"
	case commSplit:
		return "split"
	}
	return fmt.Sprintf("commState(%d)", int(s))
}

// OperandKey names one operand of one operation. All communications
// delivering a value to the same operand share a single read stub: "An
// operand can only be read from one register file, so two read stubs
// for the same operand conflict if they are not identical" (§4.2).
type OperandKey struct {
	Op   ir.OpID
	Slot int
}

// comm is one communication.
type comm struct {
	id       CommID
	def      ir.OpID // operation producing the value
	use      ir.OpID // operation consuming it
	slot     int     // operand slot in use
	srcIndex int     // index within the operand's source list
	value    ir.ValueID
	distance int // loop-carried iteration distance

	state commState

	// Write stub, valid once the def is scheduled. wPinned marks it
	// frozen (the communication closed or split through it).
	wstub   machine.WriteStub
	hasW    bool
	wPinned bool

	// Provenance for split communications.
	parent   CommID
	children [2]CommID
}

// operandRead is the shared read-stub assignment for one operand.
type operandRead struct {
	stub   machine.ReadStub
	pinned bool
	// multi reports whether several sources merge at this operand (a
	// control-flow phi); such reads are never shareable with another
	// operand's reads on the same port.
	multi bool
}

// crossBlock reports whether the communication's value crosses from the
// preamble into the loop, making it loop-invariant: it is written once
// and read on every iteration.
func (e *engine) crossBlock(c *comm) bool {
	return e.ops[c.def].Block == ir.PreambleBlock && e.ops[c.use].Block == ir.LoopBlock
}

// buildComms creates the communications of the kernel: one per
// (defining operation, use operand, source) triple (§3).
func (e *engine) buildComms() {
	for _, op := range e.kern.Ops {
		for slot, arg := range op.Args {
			if arg.Kind != ir.OperandValue {
				continue
			}
			for si, src := range arg.Srcs {
				def := e.kern.Values[src.Value].Def
				e.addComm(def, op.ID, slot, si, src.Value, src.Distance, noComm)
			}
		}
	}
}

// newComm is addComm journaled, so attempts that create communications
// (copy insertion, deposit reuse) can be rolled back.
func (e *engine) newComm(def, use ir.OpID, slot, srcIndex int, value ir.ValueID, distance int, parent CommID) CommID {
	id := e.addComm(def, use, slot, srcIndex, value, distance, parent)
	e.journal = append(e.journal, undoRec{kind: undoNewComm})
	return id
}

// addComm allocates a communication and registers it in the per-op
// indices.
func (e *engine) addComm(def, use ir.OpID, slot, srcIndex int, value ir.ValueID, distance int, parent CommID) CommID {
	c := &comm{
		id:       CommID(len(e.comms)),
		def:      def,
		use:      use,
		slot:     slot,
		srcIndex: srcIndex,
		value:    value,
		distance: distance,
		parent:   parent,
		children: [2]CommID{noComm, noComm},
	}
	e.comms = append(e.comms, c)
	e.commsFrom[def] = append(e.commsFrom[def], c.id)
	e.commsTo[use] = append(e.commsTo[use], c.id)
	return c.id
}

// dropLastComm reverses newComm: the newest communication leaves the
// table and both per-op indices.
func (e *engine) dropLastComm() {
	n := len(e.comms) - 1
	c := e.comms[n]
	e.commsFrom[c.def] = e.commsFrom[c.def][:len(e.commsFrom[c.def])-1]
	e.commsTo[c.use] = e.commsTo[c.use][:len(e.commsTo[c.use])-1]
	e.comms[n] = nil
	e.comms = e.comms[:n]
}

// setCommState transitions a communication's state, journaled (typed
// record: this runs on the solver's allocation-free path).
func (e *engine) setCommState(c *comm, s commState) {
	e.traceCommState(c, s)
	e.journal = append(e.journal, undoRec{kind: undoCommState, c: c, state: c.state})
	c.state = s
}

// setCommW records a (tentative or final) write stub, journaled (typed
// record).
func (e *engine) setCommW(c *comm, stub machine.WriteStub, pinned bool) {
	e.traceCommW(c, stub, pinned, c.hasW)
	e.journal = append(e.journal, undoRec{
		kind: undoCommW, c: c, wstub: c.wstub, hasW: c.hasW, wPinned: c.wPinned,
	})
	c.wstub, c.hasW, c.wPinned = stub, true, pinned
}

// setOperandStub records the shared read stub for an operand, journaled
// (typed record).
func (e *engine) setOperandStub(key OperandKey, stub machine.ReadStub, pinned, multi bool) {
	e.traceStubRead(key, stub, pinned)
	old, existed := e.operandStub[key]
	e.journal = append(e.journal, undoRec{kind: undoOperandStub, key: key, or: old, existed: existed})
	e.operandStub[key] = operandRead{stub: stub, pinned: pinned, multi: multi}
}

// pinOperandStub freezes an existing operand read assignment.
func (e *engine) pinOperandStub(key OperandKey) {
	or, ok := e.operandStub[key]
	if !ok || or.pinned {
		return
	}
	e.traceStubRead(key, or.stub, true)
	or.pinned = true
	e.operandStub[key] = or
	e.journal = append(e.journal, undoRec{kind: undoOperandPin, key: key})
}

// copyRange returns the width of the copy range of a closing
// communication (Fig. 23): the number of cycles available for copy
// operations between the def's completion and the use's read. Cross-
// block communications have an effectively unbounded range because the
// preamble can always be extended ("the copy range is all cycles in the
// write operation's basic block after the write operation completes").
func (e *engine) copyRange(c *comm) int {
	if e.crossBlock(c) {
		return unboundedRange
	}
	def, use := e.place[c.def], e.place[c.use]
	if !def.ok || !use.ok {
		return unboundedRange
	}
	wflat := def.cycle + e.latOf(c.def) - 1
	rflat := use.cycle + c.distance*e.blockII(e.ops[c.use].Block)
	return rflat - 1 - wflat
}

// unboundedRange stands in for the preamble's extensible copy range.
const unboundedRange = 1 << 20
