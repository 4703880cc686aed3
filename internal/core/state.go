package core

import (
	"fmt"

	"repro/internal/depgraph"
	"repro/internal/faultinject"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rules"
)

// tKey addresses one resource cycle: preamble cycles are absolute, loop
// cycles are taken modulo the initiation interval (the modulo resource
// table of software pipelining).
type tKey struct {
	block ir.BlockKind
	slot  int
}

// fuKey addresses one functional unit's issue slot on one cycle.
type fuKey struct {
	block ir.BlockKind
	fu    machine.FUID
	slot  int
}

// placement is the scheduler's decision for one operation.
type placement struct {
	fu    machine.FUID
	cycle int // flat issue cycle within the op's block timeline
	ok    bool
}

// Stats counts scheduling work, exposed on the final Schedule. The
// paper reports one of these directly: backtracking events (§4.5,
// "Communication scheduling does not require backtracking to schedule
// any of the evaluation kernels on the distributed register file
// architecture").
type Stats struct {
	Attempts        int // operation placements tried
	AttemptFailures int // placements rejected by communication scheduling
	CopiesInserted  int // copy operations in the final schedule
	PermSteps       int // stub-permutation search steps
	// Backtracks counts §4.5 backtracking events: a scheduled block had
	// to be reopened because a cross-block communication could not
	// complete (the preamble failed after the loop was placed).
	// Initiation-interval retries are ordinary modulo scheduling and
	// are counted separately in IIsTried.
	Backtracks int
	IIsTried   int // initiation intervals attempted
	// PressureOverflows counts route closes where §7 register-aware
	// routing (Options.RegisterAware) found no capacity-respecting
	// file and fell back to unrestricted choice.
	PressureOverflows int
	// MemoHits counts §4.4 solves short-circuited by the infeasibility
	// memo: permutation problems whose signature matched a dead end
	// already proven this compilation.
	MemoHits int
}

// engine is the scheduling state for one (kernel, machine) pair at one
// candidate initiation interval.
type engine struct {
	mach  *machine.Machine
	kern  *ir.Kernel
	graph *depgraph.Graph
	opts  Options

	// ops holds the kernel's operations plus inserted copies; indices
	// continue past the kernel's own ids. values likewise extends the
	// kernel's value table with copy results.
	ops    []*ir.Op
	values []*ir.Value

	place  []placement
	fuLoad map[machine.FUID]int // scheduled-op count per unit

	// physSlot overrides the physical input slot an operand is read
	// through; copies may be steered through any input of their unit.
	physSlot map[OperandKey]int

	comms     []*comm
	commsFrom [][]CommID
	commsTo   [][]CommID

	operandStub map[OperandKey]operandRead

	ii int // loop initiation interval under trial

	// Cycle indices. writesAt lists communications whose write stub
	// lands on the key's cycle (their def completes there); readsAt
	// lists operands read on the key's cycle. fuAt reserves issue slots.
	writesAt map[tKey][]CommID
	readsAt  map[tKey][]OperandKey
	fuAt     map[fuKey]ir.OpID

	journal []undoRec
	stats   Stats

	// routes is the machine's interned routing index: candidate stub
	// lists precomputed once per *Machine and shared by every engine
	// (see internal/machine/route.go).
	routes *machine.RouteIndex

	// occ and undoScratch are the reusable permutation-solver state;
	// the sharing rules themselves live in internal/rules.
	occ         *rules.Occupancy
	undoScratch []rules.Undo

	// memo is the compilation-wide infeasibility memo (nil disables
	// it): solve signatures proven unsatisfiable, shared across every
	// interval this compilation tries.
	memo *permMemo
	// wListSig/rListSig cache candidate-list content hashes by slice
	// identity (see memo.go); engine-private, grown lazily, nil until
	// the memo first hashes a stable list.
	wListSig map[wListKey]uint64
	rListSig map[rListKey]uint64

	// Solver scratch, reused across solveWrites/solveReads calls so the
	// steady-state hot path allocates nothing. i32Arena backs candidate
	// lists built dynamically (pin filters, sibling-bus partitions, phi
	// scores); carved sub-slices stay valid across later growth because
	// their values are never rewritten. flexW/flexR/choiceBuf are the
	// permutation working sets. The epoch-stamped mark arrays replace
	// per-call seen maps (the rules.Occupancy reset pattern): bumping
	// the epoch invalidates every mark in O(1).
	i32Arena     []int32
	scoreScratch []int32
	flexW        []flexWrite
	flexR        []flexRead
	choiceBuf    []int
	opndEpoch    int32
	opndMark     []int32
	commEpoch    int32
	commMark     []int32

	// wcServed marks (unit, target) write-candidate lists already served
	// once, after which sibling-bus promotion no longer applies (see
	// solveWrites). Never rolled back: "first request" means first over
	// the engine's lifetime.
	wcServed map[wcKey]struct{}

	// dscratch holds per-recursion-depth working lists for attempt and
	// routeComm, which re-enter themselves through copy insertion (at
	// e.depth+1) while their own lists are still live. Elements are
	// pointers so growth never invalidates a frame's handle.
	dscratch []*depthScratch

	// roots maps copy results to the original value they carry;
	// deposits records, per original value, every register file a
	// closed route has already placed it in — later communications of
	// the same value reuse those deposits instead of inserting further
	// copies (one copy serves every consumer in its cluster).
	// depositLoad counts deposits per file, a light congestion signal
	// used to spread consumers across units.
	roots       map[ir.ValueID]ir.ValueID
	deposits    map[ir.ValueID][]deposit
	depositLoad map[machine.RFID]int

	// assigned holds the two-phase baseline's up-front unit bindings
	// (Options.TwoPhase); empty for the unified scheduler. Copies
	// inserted by communication scheduling stay free to pick units.
	assigned map[ir.OpID]machine.FUID

	// order holds each block's scheduling order, computed by the
	// prioritize pass and consumed by the preassign and place passes.
	order map[ir.BlockKind][]ir.OpID

	// clock attributes wall time and work counters to the pipeline's
	// passes; the nested close-comms and insert-copies stages push onto
	// it from inside place. tryII hands in the compilation's (or the
	// portfolio cell's) clock; newEngine's own serves white-box tests.
	clock *obs.Clock

	// tracer receives structured events at every decision point (nil =
	// tracing disabled; see trace.go for the emit sites).
	tracer obs.Tracer

	// failBlock and failOp record where the place pass gave up, for
	// backtrack accounting and the structured failure report.
	failBlock ir.BlockKind
	failOp    ir.OpID

	// cancel, when non-nil, is polled during scheduling; once it returns
	// true the engine abandons the current interval (CompilePortfolio
	// uses it to kill attempts that can no longer win the race, and
	// CompileContext to observe ctx cancellation mid-solve). aborted
	// latches the first true poll so callers can tell a cancelled
	// attempt from an infeasible one. The solver's hot loops amortize
	// the poll: each §4.4 search step checks only the latched aborted
	// flag, and pollCountdown triggers a real poll (and a fault-plane
	// probe) every cancelPollInterval steps, bounding both the per-step
	// cost and the cancellation latency.
	cancel        func() bool
	aborted       bool
	pollCountdown int

	// faults is the armed fault-injection plane (Options.Faults); nil —
	// the default — keeps every probe site a single pointer compare.
	faults *faultinject.Plane

	// residences and regDemand are the running §7 register account of
	// register-aware routing (Options.RegisterAware, pressure.go): each
	// value's residence per file, and the registers each file holds.
	residences map[resKey]residence
	regDemand  map[machine.RFID]int

	depth int // copy-insertion recursion depth
}

// deposit is one register-file residence of a value.
type deposit struct {
	def  ir.OpID // operation whose write stub put the value there
	stub machine.WriteStub
}

// depthScratch is the reusable working state of one attempt/routeComm
// recursion depth.
type depthScratch struct {
	closings []CommID
	ranges   []int
	shared   []machine.RFID
	cool     []machine.RFID
	hot      []machine.RFID
}

// scratchAt returns the scratch frame for recursion depth d, growing
// the table on first descent.
func (e *engine) scratchAt(d int) *depthScratch {
	for len(e.dscratch) <= d {
		e.dscratch = append(e.dscratch, new(depthScratch))
	}
	return e.dscratch[d]
}

// choiceScratch returns the reusable permutation-choice buffer, sized
// to n.
func (e *engine) choiceScratch(n int) []int {
	if cap(e.choiceBuf) < n {
		e.choiceBuf = make([]int, n)
	}
	return e.choiceBuf[:n]
}

// undoKind discriminates journal records. The mutations every attempt
// makes get typed records so recording them allocates nothing;
// cold-path mutations journal an arbitrary closure.
type undoKind uint8

const (
	undoFn undoKind = iota
	undoPlace
	undoNewComm
	undoDeposit
	undoCommW
	undoCommState
	undoOperandStub
	undoOperandPin
	undoWritesAt
	undoReadsAt
)

// undoRec is one journal entry: a small union of the state needed to
// reverse each mutation kind.
type undoRec struct {
	kind    undoKind
	fn      func()    // undoFn
	c       *comm     // undoCommW, undoCommState, undoDeposit
	op      ir.OpID   // undoPlace
	pl      placement // undoPlace: previous placement of op
	key     OperandKey
	t       tKey
	or      operandRead // undoOperandStub: previous assignment
	existed bool
	wstub   machine.WriteStub // undoCommW: previous stub
	hasW    bool
	wPinned bool
	state   commState // undoCommState: previous state
}

func newEngine(k *ir.Kernel, m *machine.Machine, g *depgraph.Graph, opts Options, ii int) *engine {
	e := &engine{
		mach:        m,
		kern:        k,
		graph:       g,
		opts:        opts,
		ii:          ii,
		operandStub: make(map[OperandKey]operandRead),
		writesAt:    make(map[tKey][]CommID),
		readsAt:     make(map[tKey][]OperandKey),
		fuAt:        make(map[fuKey]ir.OpID),
		fuLoad:      make(map[machine.FUID]int),
		physSlot:    make(map[OperandKey]int),
		routes:      m.Routes(),
		wcServed:    make(map[wcKey]struct{}),
		occ:         rules.NewOccupancy(m),
		roots:       make(map[ir.ValueID]ir.ValueID),
		deposits:    make(map[ir.ValueID][]deposit),
		depositLoad: make(map[machine.RFID]int),
		residences:  make(map[resKey]residence),
		regDemand:   make(map[machine.RFID]int),
		clock:       obs.NewClock(),
		tracer:      opts.Tracer,
		faults:      opts.Faults,
		failOp:      NoOp,
	}
	e.ops = make([]*ir.Op, len(k.Ops))
	copy(e.ops, k.Ops)
	e.values = make([]*ir.Value, len(k.Values))
	copy(e.values, k.Values)
	e.place = make([]placement, len(k.Ops))
	e.commsFrom = make([][]CommID, len(k.Ops))
	e.commsTo = make([][]CommID, len(k.Ops))
	e.buildComms()
	return e
}

// cancelled polls the engine's cancellation hook, latching the result.
func (e *engine) cancelled() bool {
	if !e.aborted && e.cancel != nil && e.cancel() {
		e.aborted = true
	}
	return e.aborted
}

// log appends an arbitrary undo action to the journal (cold paths; hot
// mutations append typed records directly).
func (e *engine) log(undo func()) { e.journal = append(e.journal, undoRec{kind: undoFn, fn: undo}) }

// mark returns a journal position for later rollback.
func (e *engine) mark() int { return len(e.journal) }

// commit empties the journal once a top-level placement is accepted.
// Every mark is taken inside attempt, or inside the routing and copy
// insertion it drives, so nothing rolls back past an accepted depth-0
// placement. The journal therefore peaks at one placement's records,
// and its capacity is reused; clearing the dropped records first keeps
// them from pinning closures or communications.
func (e *engine) commit() {
	if e.depth != 0 {
		return
	}
	clear(e.journal)
	e.journal = e.journal[:0]
}

// rollback undoes every mutation after the mark, in reverse order.
func (e *engine) rollback(mark int) {
	e.traceRollback(len(e.journal) - mark)
	for i := len(e.journal) - 1; i >= mark; i-- {
		r := &e.journal[i]
		switch r.kind {
		case undoFn:
			r.fn()
			r.fn = nil
		case undoPlace:
			e.unplaceOp(r.op, r.pl)
		case undoNewComm:
			e.dropLastComm()
		case undoDeposit:
			e.dropLastDeposit(r.c)
		case undoCommW:
			r.c.wstub, r.c.hasW, r.c.wPinned = r.wstub, r.hasW, r.wPinned
		case undoCommState:
			r.c.state = r.state
		case undoOperandStub:
			if r.existed {
				e.operandStub[r.key] = r.or
			} else {
				delete(e.operandStub, r.key)
			}
		case undoOperandPin:
			or := e.operandStub[r.key]
			or.pinned = false
			e.operandStub[r.key] = or
		case undoWritesAt:
			e.writesAt[r.t] = e.writesAt[r.t][:len(e.writesAt[r.t])-1]
		case undoReadsAt:
			e.readsAt[r.t] = e.readsAt[r.t][:len(e.readsAt[r.t])-1]
		}
		r.c = nil
	}
	e.journal = e.journal[:mark]
}

// latOf returns the result latency of op id.
func (e *engine) latOf(id ir.OpID) int { return e.mach.Latency(e.ops[id].Opcode) }

// blockII returns the modulo period of a block's resource table: the
// initiation interval for the loop, 0 (no wrap) for the preamble.
func (e *engine) blockII(b ir.BlockKind) int {
	if b == ir.LoopBlock {
		return e.ii
	}
	return 0
}

// slotOf maps a flat cycle to its resource-table slot.
func (e *engine) slotOf(b ir.BlockKind, cycle int) int {
	if b == ir.LoopBlock && e.ii > 0 {
		return ((cycle % e.ii) + e.ii) % e.ii
	}
	return cycle
}

// issueSlotKey returns the resource key of op's issue cycle.
func (e *engine) issueSlotKey(id ir.OpID) tKey {
	b := e.ops[id].Block
	return tKey{b, e.slotOf(b, e.place[id].cycle)}
}

// completionSlotKey returns the resource key of op's completion cycle.
func (e *engine) completionSlotKey(id ir.OpID) tKey {
	b := e.ops[id].Block
	return tKey{b, e.slotOf(b, e.place[id].cycle+e.latOf(id)-1)}
}

// completionFlat returns op's flat completion cycle.
func (e *engine) completionFlat(id ir.OpID) int {
	return e.place[id].cycle + e.latOf(id) - 1
}

// fuFree reports whether fu can accept an issue at the given flat cycle
// (respecting the unit's issue interval) in the block's table.
func (e *engine) fuFree(b ir.BlockKind, fu machine.FUID, cycle int) bool {
	interval := e.mach.FU(fu).IssueInterval
	if b == ir.LoopBlock && interval > e.ii {
		return false
	}
	for t := cycle; t < cycle+interval; t++ {
		if _, busy := e.fuAt[fuKey{b, fu, e.slotOf(b, t)}]; busy {
			return false
		}
	}
	return true
}

// placeOp records op's placement and reserves its functional unit,
// journaled (one typed record). The caller must have checked fuFree.
func (e *engine) placeOp(id ir.OpID, fu machine.FUID, cycle int) {
	e.traceOpPlace(id, fu, cycle)
	e.journal = append(e.journal, undoRec{kind: undoPlace, op: id, pl: e.place[id]})
	e.place[id] = placement{fu: fu, cycle: cycle, ok: true}
	e.fuLoad[fu]++
	b := e.ops[id].Block
	for t := cycle; t < cycle+e.mach.FU(fu).IssueInterval; t++ {
		e.fuAt[fuKey{b, fu, e.slotOf(b, t)}] = id
	}
}

// unplaceOp reverses placeOp: it frees op's issue slots and unit load
// and restores the placement it replaced.
func (e *engine) unplaceOp(id ir.OpID, old placement) {
	pl := e.place[id]
	b := e.ops[id].Block
	for t := pl.cycle; t < pl.cycle+e.mach.FU(pl.fu).IssueInterval; t++ {
		delete(e.fuAt, fuKey{b, pl.fu, e.slotOf(b, t)})
	}
	e.fuLoad[pl.fu]--
	e.place[id] = old
}

// indexOpStubs registers the stub cycle positions implied by op's
// placement: every active outgoing communication acquires a write-stub
// position on op's completion cycle, and every value operand acquires a
// read position on op's issue cycle.
func (e *engine) indexOpStubs(id ir.OpID) {
	op := e.ops[id]
	wk := e.completionSlotKey(id)
	for _, cid := range e.commsFrom[id] {
		if e.comms[cid].state != commSplit {
			e.appendWritesAt(wk, cid)
		}
	}
	rk := e.issueSlotKey(id)
	for slot, arg := range op.Args {
		if arg.Kind != ir.OperandValue {
			continue
		}
		e.appendReadsAt(rk, OperandKey{Op: id, Slot: slot})
	}
}

func (e *engine) appendWritesAt(k tKey, c CommID) {
	e.writesAt[k] = append(e.writesAt[k], c)
	e.journal = append(e.journal, undoRec{kind: undoWritesAt, t: k})
}

func (e *engine) appendReadsAt(k tKey, ok OperandKey) {
	e.readsAt[k] = append(e.readsAt[k], ok)
	e.journal = append(e.journal, undoRec{kind: undoReadsAt, t: k})
}

// window computes the feasible issue-cycle interval [lo, hi] for op
// from its scheduled neighbors in the dependence graph. hi may be
// math-huge when unconstrained. The second result is false when the
// window is empty.
func (e *engine) window(id ir.OpID) (int, int, bool) {
	lo, hi := 0, int(1)<<30
	ii := e.blockII(e.ops[id].Block)
	for _, edge := range e.graph.In[id] {
		if !e.place[edge.From].ok {
			continue
		}
		// Cross-block edges impose no cycle constraint: the loop begins
		// after the whole preamble, copies included.
		if e.ops[edge.From].Block != e.ops[id].Block {
			continue
		}
		if t := e.place[edge.From].cycle + edge.Latency - edge.Distance*ii; t > lo {
			lo = t
		}
	}
	for _, edge := range e.graph.Out[id] {
		if !e.place[edge.To].ok {
			continue
		}
		if e.ops[edge.To].Block != e.ops[id].Block {
			continue
		}
		if t := e.place[edge.To].cycle - edge.Latency + edge.Distance*ii; t < hi {
			hi = t
		}
	}
	return lo, hi, lo <= hi
}

// opString renders an op for error messages.
func (e *engine) opString(id ir.OpID) string {
	op := e.ops[id]
	name := op.Name
	if name == "" {
		name = fmt.Sprintf("op%d", id)
	}
	return fmt.Sprintf("%s(%v)", name, op.Opcode)
}
