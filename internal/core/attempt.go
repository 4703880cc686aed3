package core

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/machine"
)

// This file implements the per-operation communication-scheduling
// procedure of §4.3: when the scheduler tentatively places an operation
// on a cycle and functional unit, communication scheduling either
// accepts the placement — allocating stubs and routes, possibly
// inserting copy operations — or rejects it, leaving no trace.

// attempt is the accept/reject entry point of Fig. 11. It places op and
// runs the five steps of §4.3:
//
//  1. valid stubs are enumerated (candidates.go);
//  2. a non-conflicting permutation of read stubs is found for the
//     issue cycle;
//  3. a non-conflicting permutation of write stubs is found for the
//     completion cycle;
//  4. each closing communication whose stubs share a register file is
//     assigned that route;
//  5. remaining closing communications get copy operations inserted and
//     scheduled (recursively, through this same function).
//
// Steps 2–4 are driven per closing communication by closeComm, which
// jointly steers the read- and write-side permutations toward a shared
// register file — the nested search the paper describes in step 2 —
// and the whole-cycle permutations at the end give the operation's
// remaining (opening) communications their tentative stubs. On failure
// every mutation is rolled back and false is returned so the scheduler
// can try another unit or cycle (Fig. 11's reject edge).
//
// attempt re-enters itself through copy insertion at e.depth+1, so its
// working lists live in per-depth engine scratch rather than per-call
// allocations.
func (e *engine) attempt(id ir.OpID, cycle int, fu machine.FUID) bool {
	if e.cancelled() {
		return false
	}
	e.stats.Attempts++
	mark := e.mark()
	e.placeOp(id, fu, cycle)
	e.indexOpStubs(id)

	ds := e.scratchAt(e.depth)
	closings := e.closingComms(id, ds)
	// Stable insertion sort by ascending copy range.
	ranges := ds.ranges[:0]
	for _, cid := range closings {
		ranges = append(ranges, e.copyRange(e.comms[cid]))
	}
	for i := 1; i < len(closings); i++ {
		for j := i; j > 0 && ranges[j] < ranges[j-1]; j-- {
			ranges[j], ranges[j-1] = ranges[j-1], ranges[j]
			closings[j], closings[j-1] = closings[j-1], closings[j]
		}
	}
	ds.ranges = ranges
	for _, cid := range closings {
		if e.comms[cid].state == commClosed || e.comms[cid].state == commSplit {
			continue // closed as a side effect of an earlier closing
		}
		if !e.closeComm(e.comms[cid]) {
			e.rollback(mark)
			e.stats.AttemptFailures++
			return false
		}
	}

	// Give the operation's opening communications tentative stubs and
	// re-validate the whole issue and completion cycles.
	if !e.solveReads(e.issueSlotKey(id), noOperand, 0) || !e.solveWrites(e.completionSlotKey(id), noComm, 0) {
		e.rollback(mark)
		e.stats.AttemptFailures++
		return false
	}
	return true
}

// closingComms collects into ds.closings the active communications
// touching op whose other endpoint is already scheduled — the
// communications that close with this placement. Self-recurrences (an
// operation reading its own previous-iteration result) appear once,
// deduplicated by the epoch-stamped comm mark array.
func (e *engine) closingComms(id ir.OpID, ds *depthScratch) []CommID {
	out := ds.closings[:0]
	e.commEpoch++
	for _, cid := range e.commsTo[id] {
		c := e.comms[cid]
		if c.state != commSplit && c.state != commClosed && e.place[c.def].ok && !e.commSeen(cid) {
			out = append(out, cid)
		}
	}
	for _, cid := range e.commsFrom[id] {
		c := e.comms[cid]
		if c.state != commSplit && c.state != commClosed && e.place[c.use].ok && !e.commSeen(cid) {
			out = append(out, cid)
		}
	}
	ds.closings = out
	return out
}

// commSeen reports whether the communication was already visited this
// epoch and marks it.
func (e *engine) commSeen(cid CommID) bool {
	if int(cid) >= len(e.commMark) {
		e.commMark = append(e.commMark, make([]int32, int(cid)+64-len(e.commMark))...)
	}
	if e.commMark[cid] == e.commEpoch {
		return true
	}
	e.commMark[cid] = e.commEpoch
	return false
}

// closeComm is the clocked close-comms pipeline stage: one routed
// communication is one step, one rejection one failure, with nested
// stages (insert-copies, and the place work of scheduling the copies)
// attributed to themselves.
func (e *engine) closeComm(c *comm) bool {
	ok := stage(e.clock, e.tracer, PassCloseComms, e.ii, func() bool { return e.routeComm(c) })
	if ok {
		e.clock.Step(PassCloseComms, 1)
	}
	return ok
}

// routeComm assigns communication c to a route (§4.3 steps 2–5 for one
// communication). It first tries each register file both stubs can
// access directly, steering the read permutation of the use's issue
// cycle and the write permutation of the def's completion cycle onto
// it; if no shared file works, it lets both permutations choose freely
// and bridges the chosen stubs with copy operations.
func (e *engine) routeComm(c *comm) bool {
	useKey := OperandKey{Op: c.use, Slot: c.slot}
	readCycle := e.issueSlotKey(c.use)
	writeCycle := e.completionSlotKey(c.def)

	tryDirect := func(rfs []machine.RFID) bool {
		for _, rf := range rfs {
			mark := e.mark()
			if e.solveReads(readCycle, useKey, rf) &&
				e.solveWrites(writeCycle, c.id, rf) {
				e.finishRoute(c)
				return true
			}
			e.rollback(mark)
		}
		return false
	}

	ds := e.scratchAt(e.depth)
	shared := e.sharedRouteRFs(c, ds.shared[:0])
	ds.shared = shared
	// With §7 register-aware routing, files whose capacity the close
	// would exceed are deferred: copies staged in colder files (placed
	// late, shrinking the hot residence — the spill shape) are
	// preferred, and the overflowing direct route is the last resort.
	coolRFs, hotRFs := ds.cool[:0], ds.hot[:0]
	if e.opts.RegisterAware {
		for _, rf := range shared {
			if e.pressureAllows(c, rf) {
				coolRFs = append(coolRFs, rf)
			} else {
				hotRFs = append(hotRFs, rf)
			}
		}
	} else {
		coolRFs = shared
	}
	ds.cool, ds.hot = coolRFs, hotRFs
	if tryDirect(coolRFs) {
		return true
	}

	// Before inserting copies, reuse an existing deposit: if an earlier
	// route (possibly through copies) already placed this value in a
	// register file the operand can read, the communication closes on
	// the deposit's write stub at zero additional cost — one copy then
	// serves every consumer in reach of its file.
	if e.closeOnDeposit(c, useKey, readCycle) {
		return true
	}

	// No direct route available: choose stubs freely and connect them
	// with copies (step 5).
	mark := e.mark()
	if e.solveReads(readCycle, noOperand, 0) {
		if or, ok := e.operandStub[useKey]; ok {
			target := or.stub.RF
			if len(hotRFs) > 0 {
				// §7 staging: the direct file is hot, so write into a
				// cool reachable file and copy just before the read —
				// splitting the residence the way §7's spill post-pass
				// would.
				for _, ws := range e.stagingRFs(c, target) {
					m2 := e.mark()
					if e.solveWrites(writeCycle, c.id, ws) {
						e.pinOperandStub(useKey)
						e.setCommW(c, c.wstub, true)
						if e.insertCopies(c, true) {
							return true
						}
					}
					e.rollback(m2)
				}
			} else if e.solveWrites(writeCycle, noComm, 0) && c.hasW {
				if c.wstub.RF == target {
					// The free permutations happened to form a route.
					e.finishRoute(c)
					return true
				}
				e.pinOperandStub(useKey)
				e.setCommW(c, c.wstub, true)
				if e.insertCopies(c, false) {
					return true
				}
			}
		}
	}
	e.rollback(mark)

	// Last resort: accept the overflow and route directly; the regalloc
	// pass reports it.
	if len(ds.hot) > 0 {
		if tryDirect(ds.hot) {
			e.stats.PressureOverflows++
			return true
		}
	}
	return false
}

// stagingRFs lists register files the def could park the value in while
// it waits for a late copy into the (hot) target: writable directly,
// copy-reachable to the target, and with capacity headroom. The list is
// capped to the coolest few candidates to bound the search.
func (e *engine) stagingRFs(c *comm, target machine.RFID) []machine.RFID {
	const maxStaging = 4
	type cand struct {
		rf   machine.RFID
		head int
	}
	var cands []cand
	for _, rf := range e.mach.WritableRFs(e.place[c.def].fu) {
		if rf == target || e.mach.CopyDistance(rf, target) < 1 {
			continue
		}
		head := e.mach.RegFiles[rf].NumRegs - e.regDemand[rf]
		if head < 1 {
			continue
		}
		cands = append(cands, cand{rf, head})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].head > cands[j].head })
	if len(cands) > maxStaging {
		cands = cands[:maxStaging]
	}
	out := make([]machine.RFID, len(cands))
	for i, c2 := range cands {
		out[i] = c2.rf
	}
	return out
}

// finishRoute pins both stubs and marks the communication closed:
// "Once a communication has been assigned to a route it is closed and
// the stubs and any copy operations that compose the route cannot be
// changed" (§4.2). The write side is recorded as a deposit for reuse
// by later communications of the same value.
func (e *engine) finishRoute(c *comm) {
	e.pinOperandStub(OperandKey{Op: c.use, Slot: c.slot})
	e.setCommW(c, c.wstub, true)
	e.setCommState(c, commClosed)
	e.recordDeposit(c)
	e.trackPressure(c)
}

// rootValue resolves a (possibly copy-produced) value to the original
// it carries.
func (e *engine) rootValue(v ir.ValueID) ir.ValueID {
	if r, ok := e.roots[v]; ok {
		return r
	}
	return v
}

// recordDeposit indexes the closed route's write stub under the value's
// root, journaled (typed record), and bumps the per-file congestion
// counter.
func (e *engine) recordDeposit(c *comm) {
	root := e.rootValue(c.value)
	e.deposits[root] = append(e.deposits[root], deposit{def: c.def, stub: c.wstub})
	e.depositLoad[c.wstub.RF]++
	e.journal = append(e.journal, undoRec{kind: undoDeposit, c: c})
}

// dropLastDeposit reverses recordDeposit for communication c. Rollback
// runs in reverse, so c's value resolves to the same root and the
// root's newest deposit is c's.
func (e *engine) dropLastDeposit(c *comm) {
	root := e.rootValue(c.value)
	deps := e.deposits[root]
	e.depositLoad[deps[len(deps)-1].stub.RF]--
	e.deposits[root] = deps[:len(deps)-1]
}

// closeOnDeposit tries to close c against an existing deposit of the
// same value. A deposit qualifies when its file is directly readable by
// the operand, the value instance is available before the read (same
// iteration frame: the whole copy chain runs in the original def's
// iteration), and the read permutation accepts the file.
func (e *engine) closeOnDeposit(c *comm, useKey OperandKey, readCycle tKey) bool {
	root := e.rootValue(c.value)
	useBlock := e.ops[c.use].Block
	rflat := e.place[c.use].cycle + c.distance*e.blockII(useBlock)
	useFU := e.place[c.use].fu
	useSel := e.slotSel(useKey, useFU)
	for _, dep := range e.deposits[root] {
		if or, ok := e.operandStub[useKey]; ok && or.pinned && or.stub.RF != dep.stub.RF {
			continue
		}
		if !e.pressureAllows(c, dep.stub.RF) {
			continue
		}
		depOp := e.ops[dep.def]
		if depOp.Block == useBlock {
			if e.completionFlat(dep.def) >= rflat {
				continue
			}
		} else if !(depOp.Block == ir.PreambleBlock && useBlock == ir.LoopBlock) {
			continue
		}
		// The operand must be able to read the deposit's file directly.
		if !e.routes.Readable(useFU, useSel, dep.stub.RF) {
			continue
		}
		mark := e.mark()
		if !e.solveReads(readCycle, useKey, dep.stub.RF) {
			e.rollback(mark)
			continue
		}
		if dep.def == c.def {
			// The def already writes this file for another consumer;
			// share the identical stub outright.
			e.setCommW(c, dep.stub, true)
			e.finishRoute(c)
			return true
		}
		// Retarget the communication onto the depositing operation: a
		// single child communication whose write stub is the existing
		// (identical, hence conflict-free) deposit stub.
		child := e.newComm(dep.def, c.use, c.slot, c.srcIndex, e.ops[dep.def].Result, c.distance, c.id)
		e.setCommState(c, commSplit)
		old := c.children
		c.children = [2]CommID{child, noComm}
		e.log(func() { c.children = old })
		cc := e.comms[child]
		e.setCommW(cc, dep.stub, true)
		e.appendWritesAt(e.completionSlotKey(dep.def), child)
		e.finishRoute(cc)
		return true
	}
	return false
}
