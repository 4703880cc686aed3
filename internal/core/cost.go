package core

import (
	"repro/internal/ir"
	"repro/internal/machine"
)

// This file implements the communication-cost heuristic of §4.6
// (equation 1):
//
//	cost = Σ over open communications  requiredCopies / (1 + copyRange)
//
// "Communication cost reflects the likelihood that assigning an
// operation to a specific functional unit will require copy operations,
// and the likelihood that those copy operations will increase schedule
// length." The scheduler orders candidate functional units by this
// cost; ties break toward less-loaded units.

// commCost evaluates equation 1 for placing op on fu at the given
// cycle. requiredCopies is the minimum copies needed regardless of
// where unscheduled partners land; copyRange is the actual range for
// scheduled partners and an ASAP-based estimate otherwise ("the copy
// range for each open communication is estimated by assuming that all
// unscheduled operations are scheduled on the earliest possible
// cycle").
func (e *engine) commCost(id ir.OpID, fu machine.FUID, cycle int) float64 {
	cost := 0.0
	for _, cid := range e.commsTo[id] {
		c := e.comms[cid]
		if c.state == commClosed || c.state == commSplit {
			continue
		}
		req := e.requiredCopiesTo(c, fu)
		if req <= 0 {
			// Even a zero-copy pairing needs a free write-port slot on
			// the def's completion cycle; a congested target behaves
			// like one forced copy.
			if e.place[c.def].ok && e.targetPortsBusy(c, fu) {
				req = 1
			} else {
				continue
			}
		}
		cost += float64(req) / float64(1+e.rangeEstimateTo(c, id, cycle))
	}
	for _, cid := range e.commsFrom[id] {
		c := e.comms[cid]
		if c.state == commClosed || c.state == commSplit || c.def == c.use {
			continue // self-recurrences were counted above
		}
		req := e.requiredCopiesFrom(c, fu)
		if req <= 0 {
			continue
		}
		cost += float64(req) / float64(1+e.rangeEstimateFrom(c, id, cycle))
	}
	return cost
}

// requiredCopiesTo estimates the copies needed for communication c if
// its use runs on fu.
func (e *engine) requiredCopiesTo(c *comm, fu machine.FUID) int {
	key := OperandKey{Op: c.use, Slot: c.slot}
	best := -1
	for _, slot := range e.allowedSlots(key, fu) {
		var d int
		if e.place[c.def].ok {
			d = e.mach.MinCopies(e.place[c.def].fu, fu, slot)
		} else {
			d = -1
			for _, dfu := range e.mach.UnitsFor(e.ops[c.def].Opcode.Class()) {
				if dd := e.mach.MinCopies(dfu, fu, slot); dd >= 0 && (d < 0 || dd < d) {
					d = dd
				}
			}
		}
		if d >= 0 && (best < 0 || d < best) {
			best = d
		}
	}
	return clampNonNeg(best)
}

// requiredCopiesFrom estimates the copies needed for communication c if
// its def runs on fu.
func (e *engine) requiredCopiesFrom(c *comm, fu machine.FUID) int {
	if e.place[c.use].ok {
		key := OperandKey{Op: c.use, Slot: c.slot}
		ufu := e.place[c.use].fu
		best := -1
		for _, slot := range e.allowedSlots(key, ufu) {
			if d := e.mach.MinCopies(fu, ufu, slot); d >= 0 && (best < 0 || d < best) {
				best = d
			}
		}
		return clampNonNeg(best)
	}
	best := -1
	for _, u := range e.mach.UnitsFor(e.ops[c.use].Opcode.Class()) {
		for s := 0; s < e.mach.FU(u).NumInputs; s++ {
			if d := e.mach.MinCopies(fu, u, s); d >= 0 && (best < 0 || d < best) {
				best = d
			}
		}
	}
	return clampNonNeg(best)
}

func clampNonNeg(v int) int {
	if v < 0 {
		return 0 // unreachable pairings are rejected elsewhere
	}
	return v
}

// rangeEstimateTo estimates the copy range of a communication into op,
// with op tentatively issuing at cycle.
func (e *engine) rangeEstimateTo(c *comm, id ir.OpID, cycle int) int {
	ii := e.blockII(e.ops[id].Block)
	rflat := cycle + c.distance*ii
	if e.place[c.def].ok {
		return maxInt(0, rflat-1-e.completionFlat(c.def))
	}
	if int(c.def) < len(e.graph.In) {
		est := rflat - 1 - (e.graph.ASAP(c.def) + e.latOf(c.def) - 1)
		return maxInt(0, est)
	}
	return 0
}

// rangeEstimateFrom estimates the copy range of a communication out of
// op, with op tentatively issuing at cycle.
func (e *engine) rangeEstimateFrom(c *comm, id ir.OpID, cycle int) int {
	ii := e.blockII(e.ops[id].Block)
	wflat := cycle + e.latOf(id) - 1
	if e.place[c.use].ok {
		return maxInt(0, e.place[c.use].cycle+c.distance*ii-1-wflat)
	}
	if int(c.use) < len(e.graph.In) {
		return maxInt(0, e.graph.ASAP(c.use)+c.distance*ii-1-wflat)
	}
	return 0
}

// targetPortsBusy reports whether every register file that candidate
// unit fu could read communication c's value from is already receiving
// a different value on the def's completion cycle. The scheduler uses
// this to steer consumers toward units whose input files still have a
// free write slot, which matters on machines with single shared write
// ports (the distributed architecture).
func (e *engine) targetPortsBusy(c *comm, fu machine.FUID) bool {
	wk := e.completionSlotKey(c.def)
	claims := e.writesAt[wk]
	if len(claims) == 0 {
		return false
	}
	key := OperandKey{Op: c.use, Slot: c.slot}
	for _, slot := range e.allowedSlots(key, fu) {
		for _, rs := range e.mach.ReadStubs(fu, slot) {
			// The file is busy only when competing distinct values
			// already fill every write port on the completion cycle.
			ports := e.mach.NumWritePorts(rs.RF)
			var competing [8]ir.ValueID
			n := 0
			for _, cid2 := range claims {
				c2 := e.comms[cid2]
				if c2.state == commSplit || !c2.hasW || c2.wstub.RF != rs.RF || c2.value == c.value {
					continue
				}
				dup := false
				for i := 0; i < n; i++ {
					if competing[i] == c2.value {
						dup = true
						break
					}
				}
				if !dup && n < len(competing) {
					competing[n] = c2.value
					n++
				}
				if n >= ports {
					break
				}
			}
			if n < ports {
				return false // a free (or same-value) slot exists
			}
		}
	}
	return true
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
