package core

import (
	"repro/internal/ir"
	"repro/internal/machine"
)

// This file is the compiler's one register model, after §7: "When
// communication scheduling assigns a communication to a route through a
// specific register file, it implicitly allocates a register in that
// register file." A value's residence in one file spans its write to
// its last read. With modulo variable expansion, a software-pipelined
// residence live L cycles occupies ⌈L/II⌉ registers; a loop invariant
// or a preamble value occupies one.
//
// Two users keep the same account, each in its own way:
//   - the regalloc pass folds a finished schedule's routes into the
//     per-file demand Schedule.RegDemand in one batch (implicitDemand);
//   - with Options.RegisterAware set, the engine keeps it incrementally
//     as routes close (trackPressure) and avoids route choices that
//     would overflow a file's capacity when any alternative exists
//     (pressureAllows). That is §7's "improved form of communication
//     scheduling", which would "use an estimate of the number of
//     registers implicitly allocated in each register file to influence
//     routing decisions".
//
// On the winning engine the running demand equals Schedule.RegDemand
// file for file. Overflows are reported, not repaired: no spill copies
// are inserted.

// resKey identifies one value's residence in one register file.
type resKey struct {
	value ir.ValueID
	rf    machine.RFID
}

// residence is one value's stay in one register file.
type residence struct {
	write     int          // flat cycle the write completes
	lastRead  int          // latest flat read; loop-carried reads add distance·II
	block     ir.BlockKind // the writing operation's block
	invariant bool         // written in the preamble, read by the loop
}

func newResidence(write int, block ir.BlockKind) residence {
	return residence{write: write, lastRead: write, block: block}
}

// noteRead folds one read into the residence. A cross-block read (a
// preamble write read by the loop) makes it a loop invariant; any other
// read at flat cycle read extends its life.
func (r *residence) noteRead(crossBlock bool, read int) {
	if crossBlock {
		r.invariant = true
		return
	}
	if read > r.lastRead {
		r.lastRead = read
	}
}

// regs is the number of registers the residence occupies at interval
// ii: ⌈life/II⌉ for a loop value (life at least one cycle), 1 for a
// loop invariant or a preamble value.
func (r residence) regs(ii int) int {
	if r.invariant || r.block != ir.LoopBlock || ii <= 0 {
		return 1
	}
	life := r.lastRead - r.write
	if life < 1 {
		life = 1
	}
	return (life + ii - 1) / ii
}

// scheduleResidences collects a finished schedule's residences from
// its routes.
func scheduleResidences(s *Schedule) map[resKey]*residence {
	res := make(map[resKey]*residence)
	for _, r := range s.Routes {
		defOp, useOp := s.Ops[r.Def], s.Ops[r.Use]
		k := resKey{r.Value, r.W.RF}
		rs := res[k]
		if rs == nil {
			n := newResidence(s.Assignments[r.Def].Cycle+s.Machine.Latency(defOp.Opcode)-1, defOp.Block)
			rs = &n
			res[k] = rs
		}
		ii := 0
		if useOp.Block == ir.LoopBlock {
			ii = s.II
		}
		rs.noteRead(defOp.Block == ir.PreambleBlock && useOp.Block == ir.LoopBlock,
			s.Assignments[r.Use].Cycle+r.Distance*ii)
	}
	return res
}

// implicitDemand sums a finished schedule's residences into per-file
// register demand.
func implicitDemand(s *Schedule) map[machine.RFID]int {
	demand := make(map[machine.RFID]int)
	for k, rs := range scheduleResidences(s) {
		demand[k.rf] += rs.regs(s.II)
	}
	return demand
}

// projectResidence returns communication c's residence in rf with c's
// read noted (once its use is placed), and the change in the file's
// demand that closing c there would make.
func (e *engine) projectResidence(c *comm, rf machine.RFID) (residence, int) {
	old, existed := e.residences[resKey{c.value, rf}]
	res := old
	if !existed {
		res = newResidence(e.completionFlat(c.def), e.ops[c.def].Block)
	}
	if cross := e.crossBlock(c); cross || e.place[c.use].ok {
		res.noteRead(cross, e.place[c.use].cycle+c.distance*e.blockII(e.ops[c.use].Block))
	}
	delta := res.regs(e.ii)
	if existed {
		delta -= old.regs(e.ii)
	}
	return res, delta
}

// trackPressure folds a just-closed communication into the running
// per-file demand, journaled.
func (e *engine) trackPressure(c *comm) {
	if !e.opts.RegisterAware {
		return
	}
	key := resKey{c.value, c.wstub.RF}
	old, existed := e.residences[key]
	res, delta := e.projectResidence(c, key.rf)
	e.residences[key] = res
	e.regDemand[key.rf] += delta
	e.log(func() {
		if existed {
			e.residences[key] = old
		} else {
			delete(e.residences, key)
		}
		e.regDemand[key.rf] -= delta
	})
}

// pressureAllows reports whether staging communication c's value in rf
// would keep the file within its register capacity. Always true when
// register-aware routing is off. It is a soft filter: callers fall back
// to unfiltered candidates when nothing passes, so scheduling still
// completes and the overflow is reported.
func (e *engine) pressureAllows(c *comm, rf machine.RFID) bool {
	if !e.opts.RegisterAware {
		return true
	}
	_, delta := e.projectResidence(c, rf)
	return e.regDemand[rf]+delta <= e.mach.RegFiles[rf].NumRegs
}
