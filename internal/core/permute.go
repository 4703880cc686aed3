package core

import (
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rules"
)

// This file implements the stub-permutation searches of §4.3 steps 2–3
// with the bounded backtracking of §4.4: "orders the communications,
// then finds the first stub for each communication that does not
// conflict with the stub found for a previous communication", falling
// back when a communication's candidates are exhausted, and giving up
// after a bounded number of partial permutations. Closed communications
// keep their stubs; open and closing communications may be reassigned
// ("communication scheduling may change the stub assigned to the open
// communication", §4.2). Closing communications go first, smallest copy
// range first.
//
// Conflict checking is the §4.2 rules engine in internal/rules. The
// whole path is allocation-free in steady state: candidate lists come
// interned from the machine's routing index (or are carved from the
// engine's reusable arena), the flex/choice working sets are engine
// scratch, dedup is an epoch-stamped array (the rules.Occupancy
// pattern), and the solver's sorts are manual stable insertion sorts.

// writeIdentity returns the value-instance identity of a communication's
// write event: the value and the flat cycle the write occurs on.
func (e *engine) writeIdentity(c *comm) rules.Value {
	return rules.Value{ID: c.value, Flat: int32(e.completionFlat(c.def))}
}

// readIdentity returns the value-instance identity of an operand's read
// event. Loop-invariant values (defined in the preamble, read in the
// loop) are identified by value alone: every iteration reads the same
// instance. Loop-carried reads are normalized by distance·II so that
// reads landing on the same absolute cycle compare equal exactly when
// they fetch the same dynamic instance. Multi-source (phi) operands are
// never shareable.
func (e *engine) readIdentity(key OperandKey) rules.Value {
	var only *comm
	n := 0
	for _, cid := range e.commsTo[key.Op] {
		c := e.comms[cid]
		if c.state == commSplit || c.slot != key.Slot {
			continue
		}
		only = c
		n++
	}
	rflat := e.place[key.Op].cycle
	if n != 1 {
		return rules.Value{ID: ir.NoValue, Flat: int32(rflat), Uniq: opndNonce(key)}
	}
	if e.crossBlock(only) {
		return rules.Value{ID: only.value, Inv: true}
	}
	return rules.Value{ID: only.value, Flat: int32(rflat - only.distance*e.blockII(e.ops[key.Op].Block))}
}

// flexWrite is one write-side item of a permutation problem. cands
// indexes into base (a shared machine stub slice).
type flexWrite struct {
	id      CommID
	base    []machine.WriteStub
	cands   []int32
	closing bool
	rangeW  int
	val     rules.Value
}

// flexRead is one read-side item.
type flexRead struct {
	key     OperandKey
	base    []machine.ReadStub
	cands   []int32
	closing bool
	rangeW  int
	val     rules.Value
}

// permBudgetDefault bounds the permutation search steps.
const permBudgetDefault = 4096

// noOperand is the absent-pin sentinel for solveReads.
var noOperand = OperandKey{Op: ir.NoOp}

// solveWrites finds a conflict-free permutation of write stubs for the
// communications whose write lands on cycle key (§4.3 step 3). A pin
// (pin != noComm) steers one communication onto register file pinRF,
// used when a closing communication is routed. On success the chosen
// stubs are recorded (journaled) and the function returns true; on
// failure no state changes.
func (e *engine) solveWrites(key tKey, pin CommID, pinRF machine.RFID) bool {
	o := e.occ
	o.Reset()
	undo := e.undoScratch[:0]
	defer func() { e.undoScratch = undo[:0] }()
	e.i32Arena = e.i32Arena[:0]

	// The infeasibility memo's problem signature accumulates alongside
	// the obstacle placements and flex-item construction below, so a
	// solve that fails before the search starts pays only the mixing of
	// what it had built so far.
	memo := e.memo
	var sig memoSig
	if memo != nil {
		sig = newMemoSig(1)
	}

	// Obstacles: read stubs assigned on the same cycle, then pinned
	// write stubs.
	for _, ok := range e.readsAt[key] {
		if or, have := e.operandStub[ok]; have {
			val := e.readIdentity(ok)
			var fits bool
			undo, fits = o.PlaceRead(or.stub, val, opndNonce(ok), undo)
			if !fits {
				o.Undo(undo)
				return false
			}
			if memo != nil {
				sig.mixReadStub(or.stub)
				sig.mixValue(val)
				sig.mix(uint64(uint32(opndNonce(ok))))
			}
		}
	}
	flex := e.flexW[:0]
	defer func() { e.flexW = flex[:0] }()
	for _, cid := range e.writesAt[key] {
		c := e.comms[cid]
		if c.state == commSplit {
			continue
		}
		val := e.writeIdentity(c)
		if c.state == commClosed || c.wPinned {
			var fits bool
			undo, fits = o.PlaceWrite(c.wstub, val, undo)
			if !fits {
				o.Undo(undo)
				return false
			}
			if memo != nil {
				sig.mixWriteStub(c.wstub)
				sig.mixValue(val)
			}
			continue
		}
		base, idx, wk := e.writeCandIndex(c)
		stable := cid != pin
		if cid == pin {
			idx = e.filterWriteIdx(base, idx, pinRF)
		}
		// Sibling-bus promotion applies only the first time each (unit,
		// target) list is requested over the engine's lifetime — the
		// semantics of the legacy candidate cache, which returned the
		// cached (unpartitioned) list on every later request. The goldens
		// pin this, and it is the cheap case: a promoted order matters
		// most before siblings have stubs to clash with.
		if _, served := e.wcServed[wk]; !served {
			e.wcServed[wk] = struct{}{}
			old := idx
			idx = e.preferSiblingBuses(c, base, idx)
			if len(idx) != len(old) || (len(idx) > 0 && &idx[0] != &old[0]) {
				stable = false // promotion built an arena copy
			}
		}
		if len(idx) == 0 {
			o.Undo(undo)
			return false
		}
		if memo != nil {
			sig.mixValue(val)
			sig.mix(e.writeListSig(base, idx, stable))
		}
		flex = append(flex, flexWrite{
			id:      cid,
			base:    base,
			cands:   idx,
			closing: e.place[c.use].ok,
			rangeW:  e.copyRange(c),
			val:     val,
		})
	}
	// The search order is the sort's permutation of construction order,
	// so an exhausted search is keyed on the items' sort keys taken
	// before the sort.
	var proven, exhausted memoKey
	if memo != nil {
		proven = sig.key()
		for i := range flex {
			sig.mixOrder(flex[i].closing, flex[i].rangeW)
		}
		exhausted = sig.exhaustedKey(e.permBudget())
	}
	// Stable insertion sort: closing first, then smallest copy range.
	for i := 1; i < len(flex); i++ {
		for j := i; j > 0 && flexLess(flex[j].closing, flex[j].rangeW, flex[j-1].closing, flex[j-1].rangeW); j-- {
			flex[j], flex[j-1] = flex[j-1], flex[j]
		}
	}
	if memo != nil && e.memoHit(proven, exhausted) {
		o.Undo(undo)
		return false
	}
	budget := e.solveBudget()
	choice := e.choiceScratch(len(flex))
	okAll, undoAll := e.dfsWrites(o, flex, choice, 0, &budget, undo)
	undo = undoAll
	o.Undo(undo)
	if !okAll {
		if memo != nil {
			e.memoRecord(proven, exhausted, budget)
		}
		return false
	}
	for i, f := range flex {
		e.setCommW(e.comms[f.id], f.base[f.cands[choice[i]]], false)
	}
	return true
}

// solveReads is the read-side analogue (§4.3 step 2): a conflict-free
// permutation of read stubs for the operands read on cycle key. A pin
// (pin != noOperand) steers one operand onto register file pinRF.
func (e *engine) solveReads(key tKey, pin OperandKey, pinRF machine.RFID) bool {
	o := e.occ
	o.Reset()
	undo := e.undoScratch[:0]
	defer func() { e.undoScratch = undo[:0] }()
	e.i32Arena = e.i32Arena[:0]

	memo := e.memo
	var sig memoSig
	if memo != nil {
		sig = newMemoSig(2)
	}
	for _, cid := range e.writesAt[key] {
		c := e.comms[cid]
		if c.state == commSplit || !c.hasW {
			continue
		}
		val := e.writeIdentity(c)
		var fits bool
		undo, fits = o.PlaceWrite(c.wstub, val, undo)
		if !fits {
			o.Undo(undo)
			return false
		}
		if memo != nil {
			sig.mixWriteStub(c.wstub)
			sig.mixValue(val)
		}
	}
	flex := e.flexR[:0]
	defer func() { e.flexR = flex[:0] }()
	e.opndEpoch++
	for _, ok := range e.readsAt[key] {
		if e.opndSeen(ok) {
			continue
		}
		val := e.readIdentity(ok)
		if or, have := e.operandStub[ok]; have && or.pinned {
			var fits bool
			undo, fits = o.PlaceRead(or.stub, val, opndNonce(ok), undo)
			if !fits {
				o.Undo(undo)
				return false
			}
			if memo != nil {
				sig.mixReadStub(or.stub)
				sig.mixValue(val)
				sig.mix(uint64(uint32(opndNonce(ok))))
			}
			continue
		}
		base, idx, stable := e.readCandIndex(ok)
		if ok == pin {
			idx = e.filterReadIdx(base, idx, pinRF)
			stable = false
		}
		if len(idx) == 0 {
			o.Undo(undo)
			return false
		}
		closing, rangeW := e.operandClosing(ok)
		if memo != nil {
			sig.mixValue(val)
			sig.mix(uint64(uint32(opndNonce(ok))))
			sig.mix(e.readListSig(base, idx, stable))
		}
		flex = append(flex, flexRead{
			key: ok, base: base, cands: idx, closing: closing, rangeW: rangeW, val: val,
		})
	}
	var proven, exhausted memoKey
	if memo != nil {
		proven = sig.key()
		for i := range flex {
			sig.mixOrder(flex[i].closing, flex[i].rangeW)
		}
		exhausted = sig.exhaustedKey(e.permBudget())
	}
	for i := 1; i < len(flex); i++ {
		for j := i; j > 0 && flexLess(flex[j].closing, flex[j].rangeW, flex[j-1].closing, flex[j-1].rangeW); j-- {
			flex[j], flex[j-1] = flex[j-1], flex[j]
		}
	}
	if memo != nil && e.memoHit(proven, exhausted) {
		o.Undo(undo)
		return false
	}
	budget := e.solveBudget()
	choice := e.choiceScratch(len(flex))
	okAll, undoAll := e.dfsReads(o, flex, choice, 0, &budget, undo)
	undo = undoAll
	o.Undo(undo)
	if !okAll {
		if memo != nil {
			e.memoRecord(proven, exhausted, budget)
		}
		return false
	}
	for i, f := range flex {
		e.setOperandStub(f.key, f.base[f.cands[choice[i]]], false, f.val.Uniq != 0)
	}
	return true
}

// flexLess is the permutation ordering: closing items first, then
// ascending copy range. Strict, so insertion sort on it is stable.
func flexLess(aClosing bool, aRange int, bClosing bool, bRange int) bool {
	if aClosing != bClosing {
		return aClosing
	}
	return aRange < bRange
}

// opndSeen dedups operands within one solve via the epoch-stamped mark
// array (the rules.Occupancy reset-free pattern): reports whether the
// operand was already visited this epoch and marks it.
func (e *engine) opndSeen(key OperandKey) bool {
	idx := int(key.Op)*8 + key.Slot
	if idx >= len(e.opndMark) {
		e.opndMark = append(e.opndMark, make([]int32, idx+64-len(e.opndMark))...)
	}
	if e.opndMark[idx] == e.opndEpoch {
		return true
	}
	e.opndMark[idx] = e.opndEpoch
	return false
}

func (e *engine) permBudget() int {
	if e.opts.PermBudget > 0 {
		return e.opts.PermBudget
	}
	return permBudgetDefault
}

// solveBudget starts a fresh per-solve step budget and forces the next
// solverStep to poll, so cancellation and injected exhaustion are
// observed at every solve boundary regardless of the amortized
// countdown's phase.
func (e *engine) solveBudget() int {
	if e.pollCountdown > 1 {
		e.pollCountdown = 1
	}
	return e.permBudget()
}

// cancelPollInterval amortizes cancellation polling in the solver hot
// loops: every search step pays only a latched-flag check, and a real
// poll of the cancellation hook (plus a fault-plane probe) runs every
// this many steps — so cancellation latency is bounded by the interval
// while the steady-state per-step cost stays one branch.
const cancelPollInterval = 64

// budgetFaulted is the budget a search is left with when the fault
// plane forces its exhaustion: below zero, so the memo can tell it from
// a real exhaustion (budget 0) and record nothing.
const budgetFaulted = -1

// solverStep accounts one §4.4 permutation-search step and reports
// whether the search may continue: false on budget exhaustion, on
// observed cancellation, or when the fault plane injects a forced
// exhaustion. The countdown persists across solve calls, so the
// amortization bound holds globally, not per solve.
func (e *engine) solverStep(budget *int) bool {
	if *budget <= 0 || e.aborted {
		return false
	}
	*budget--
	e.stats.PermSteps++
	if e.pollCountdown--; e.pollCountdown <= 0 {
		e.pollCountdown = cancelPollInterval
		if e.cancelled() {
			return false
		}
		if e.faults != nil && e.faults.Probe(faultinject.SiteSolver, "") {
			*budget = budgetFaulted
			return false
		}
	}
	return true
}

func (e *engine) dfsWrites(o *rules.Occupancy, flex []flexWrite, choice []int, i int, budget *int, undo []rules.Undo) (bool, []rules.Undo) {
	if i == len(flex) {
		return true, undo
	}
	f := &flex[i]
	traced := e.tracer != nil
	for ci, candIdx := range f.cands {
		cand := f.base[candIdx]
		if !e.solverStep(budget) {
			return false, undo
		}
		if traced {
			e.tracePerm(obs.KindPermAttempt, i, int32(f.id))
		}
		mark := len(undo)
		var fits bool
		undo, fits = o.PlaceWrite(cand, f.val, undo)
		if !fits {
			if traced {
				e.tracePerm(obs.KindPermReject, i, int32(f.id))
			}
			continue
		}
		choice[i] = ci
		var ok bool
		ok, undo = e.dfsWrites(o, flex, choice, i+1, budget, undo)
		if ok {
			if traced {
				e.tracePerm(obs.KindPermAccept, i, int32(f.id))
			}
			return true, undo
		}
		if traced {
			e.tracePerm(obs.KindPermReject, i, int32(f.id))
		}
		o.Undo(undo[mark:])
		undo = undo[:mark]
	}
	return false, undo
}

func (e *engine) dfsReads(o *rules.Occupancy, flex []flexRead, choice []int, i int, budget *int, undo []rules.Undo) (bool, []rules.Undo) {
	if i == len(flex) {
		return true, undo
	}
	f := &flex[i]
	traced := e.tracer != nil
	for ci, candIdx := range f.cands {
		cand := f.base[candIdx]
		if !e.solverStep(budget) {
			return false, undo
		}
		if traced {
			e.tracePerm(obs.KindPermAttempt, i, opndNonce(f.key))
		}
		mark := len(undo)
		var fits bool
		undo, fits = o.PlaceRead(cand, f.val, opndNonce(f.key), undo)
		if !fits {
			if traced {
				e.tracePerm(obs.KindPermReject, i, opndNonce(f.key))
			}
			continue
		}
		choice[i] = ci
		var ok bool
		ok, undo = e.dfsReads(o, flex, choice, i+1, budget, undo)
		if ok {
			if traced {
				e.tracePerm(obs.KindPermAccept, i, opndNonce(f.key))
			}
			return true, undo
		}
		if traced {
			e.tracePerm(obs.KindPermReject, i, opndNonce(f.key))
		}
		o.Undo(undo[mark:])
		undo = undo[:mark]
	}
	return false, undo
}

// opndNonce uniquely identifies an operand for input-exclusivity
// checks.
func opndNonce(key OperandKey) int32 { return int32(key.Op)*8 + int32(key.Slot) + 1 }

// operandClosing reports whether any communication into the operand is
// closing, and the smallest copy range among them.
func (e *engine) operandClosing(key OperandKey) (bool, int) {
	closing, rangeW := false, unboundedRange
	for _, cid := range e.commsTo[key.Op] {
		c := e.comms[cid]
		if c.state == commSplit || c.slot != key.Slot || c.state == commClosed {
			continue
		}
		if e.place[c.def].ok {
			closing = true
			if r := e.copyRange(c); r < rangeW {
				rangeW = r
			}
		}
	}
	return closing, rangeW
}
