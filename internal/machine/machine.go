// Package machine models shared-interconnect VLIW datapaths: functional
// units, register files, register-file ports, and buses, with explicit
// connectivity between them.
//
// The model follows §1–§2 of the paper. Every functional-unit input or
// output reaches register files only through buses and ports, and any of
// those resources may be shared. A write stub is a (functional-unit
// output, bus, register-file write port) path; a read stub is a
// (register-file read port, bus, functional-unit input) path (§4.2,
// Fig. 12). The package enumerates the valid stubs for every functional
// unit and operand slot, validates machine descriptions, and checks the
// copy-connectedness property of Appendix A that communication
// scheduling requires.
//
// The four architectures evaluated in the paper — central register file
// (Fig. 25), clustered register files with two and four clusters
// (Fig. 26), and the distributed register file architecture (Fig. 27) —
// are provided as constructors, along with the small motivating-example
// machine of Fig. 5. A Builder supports exploring novel register-file
// organizations, which §8 calls out as a use of the technique.
package machine

import (
	"fmt"
	"sync"

	"repro/internal/ir"
)

// Identifier types for the machine's resources. All identifiers are
// dense indices into the corresponding Machine slices.
type (
	// FUID identifies a functional unit.
	FUID int
	// RFID identifies a register file.
	RFID int
	// BusID identifies a bus.
	BusID int
	// RPID identifies a register-file read port.
	RPID int
	// WPID identifies a register-file write port.
	WPID int
)

// Invalid resource sentinels.
const (
	NoFU  FUID  = -1
	NoRF  RFID  = -1
	NoBus BusID = -1
	NoRP  RPID  = -1
	NoWP  WPID  = -1
)

// FUKind is the hardware flavor of a functional unit. It determines
// which operation classes the unit executes.
type FUKind int

// The unit kinds of the evaluated machine: "six adders, three
// multipliers, a divider, a permutation unit (pu), and a scratchpad
// (sp)" plus "four load/store (l/s) units" (§5), and the special copy
// units the clustered architecture is modeled with.
const (
	Adder FUKind = iota
	Multiplier
	Divider
	PermUnit
	Scratchpad
	LoadStore
	CopyUnit

	numFUKinds
)

// String returns the kind mnemonic used in schedule dumps.
func (k FUKind) String() string {
	switch k {
	case Adder:
		return "add"
	case Multiplier:
		return "mul"
	case Divider:
		return "div"
	case PermUnit:
		return "pu"
	case Scratchpad:
		return "sp"
	case LoadStore:
		return "ls"
	case CopyUnit:
		return "cp"
	}
	return fmt.Sprintf("FUKind(%d)", int(k))
}

// classOf maps a unit kind to the operation class it natively executes.
func (k FUKind) class() ir.Class {
	switch k {
	case Adder:
		return ir.ClsAdd
	case Multiplier:
		return ir.ClsMul
	case Divider:
		return ir.ClsDiv
	case PermUnit:
		return ir.ClsPerm
	case Scratchpad:
		return ir.ClsSP
	case LoadStore:
		return ir.ClsMem
	case CopyUnit:
		return ir.ClsCopy
	}
	return ir.ClsNone
}

// FU is one functional unit. Every unit has NumInputs operand inputs and
// a single result output.
type FU struct {
	ID        FUID
	Name      string
	Kind      FUKind
	Cluster   int // cluster index; -1 when the machine is not clustered
	NumInputs int
	// CanCopy marks units that implement the copy operation in addition
	// to their native class ("All functional units in the distributed
	// register file architecture except the scratchpad unit implement
	// the copy operation", §5).
	CanCopy bool
	// IssueInterval is the minimum number of cycles between successive
	// issues to this unit (1 = fully pipelined).
	IssueInterval int
}

// Executes reports whether the unit can perform operations of class c.
func (f *FU) Executes(c ir.Class) bool {
	if c == ir.ClsCopy {
		return f.CanCopy || f.Kind == CopyUnit
	}
	return f.Kind.class() == c
}

// RegFile is one register file.
type RegFile struct {
	ID      RFID
	Name    string
	Cluster int
	// NumRegs is the storage capacity, consumed by the §7 register
	// model (demand and overflow) and the VLSI cost model.
	NumRegs int
}

// Bus is one interconnect bus. A bus carries a single value per cycle —
// it has at most one driver — but may fan out to several sinks.
type Bus struct {
	ID   BusID
	Name string
	// Global marks inter-register-file buses, reported separately by the
	// cost model (their wires span the whole datapath).
	Global bool
}

// ReadPort is one register-file read port. A read port reads a single
// value per cycle.
type ReadPort struct {
	ID   RPID
	RF   RFID
	Name string
}

// WritePort is one register-file write port. A write port writes a
// single value per cycle.
type WritePort struct {
	ID   WPID
	RF   RFID
	Name string
}

// InputRef names one operand input of one functional unit.
type InputRef struct {
	FU   FUID
	Slot int
}

// ReadStub is a complete read path: register file → read port → bus →
// functional-unit input (§4.2). The cycle a stub occupies is not part of
// the stub; allocation is the scheduler's job.
type ReadStub struct {
	RF   RFID
	Port RPID
	Bus  BusID
	FU   FUID
	Slot int
}

// WriteStub is a complete write path: functional-unit output → bus →
// write port → register file (§4.2).
type WriteStub struct {
	FU   FUID
	Bus  BusID
	Port WPID
	RF   RFID
}

// String renders the stub for diagnostics.
func (s ReadStub) String() string {
	return fmt.Sprintf("rf%d.rp%d->bus%d->fu%d.in%d", s.RF, s.Port, s.Bus, s.FU, s.Slot)
}

// String renders the stub for diagnostics.
func (s WriteStub) String() string {
	return fmt.Sprintf("fu%d->bus%d->rf%d.wp%d", s.FU, s.Bus, s.RF, s.Port)
}

// Machine is a complete datapath description. Machines are immutable
// after Build; the scheduler treats them as read-only.
type Machine struct {
	Name string

	FUs        []*FU
	RegFiles   []*RegFile
	Buses      []*Bus
	ReadPorts  []*ReadPort
	WritePorts []*WritePort

	// Connectivity edge sets.
	OutToBus [][]BusID    // per FU: buses its output can drive
	BusToWP  [][]WPID     // per bus: write ports it can feed
	RPToBus  [][]BusID    // per read port: buses it can drive
	BusToIn  [][]InputRef // per bus: functional-unit inputs it can feed

	// Latencies configures per-opcode result latency.
	Latencies LatencyTable

	// Derived tables, computed by Build.
	readStubs  [][][]ReadStub // [fu][slot]
	writeStubs [][]WriteStub  // [fu]
	classUnits map[ir.Class][]FUID
	CopySteps  [][]CopyStep // [rf]: single-copy moves out of rf
	copyDist   [][]int      // [rfFrom][rfTo]: min copies; -1 unreachable
	minCopies  [][][]int    // [fuFrom][fuTo][slot]: min copies output->input

	distFUToRF  [][]int   // [fu][rf]: min copies from fu's output into rf
	distRFToIn  [][][]int // [rf][fu][slot]: min copies from rf to the input
	writableRFs [][]RFID  // [fu]: distinct register files fu's output reaches directly
	wpCount     []int     // [rf]: write ports on the file

	// routeIdx is the interned routing index (route.go), built lazily on
	// first use and shared across compilations and portfolio variants.
	routeOnce sync.Once
	routeIdx  *RouteIndex
}

// NumWritePorts returns how many write ports register file rf has.
func (m *Machine) NumWritePorts(rf RFID) int { return m.wpCount[rf] }

// CopyStep records that a copy executed on FU (reading RF From at Slot)
// can deposit the value in RF To.
type CopyStep struct {
	FU   FUID
	Slot int
	From RFID
	To   RFID
}

// NumFUs returns the functional-unit count.
func (m *Machine) NumFUs() int { return len(m.FUs) }

// FU returns the unit with the given id.
func (m *Machine) FU(id FUID) *FU { return m.FUs[id] }

// UnitsFor returns the functional units able to execute class c, in id
// order. The returned slice is shared; callers must not modify it.
func (m *Machine) UnitsFor(c ir.Class) []FUID { return m.classUnits[c] }

// ReadStubs returns the valid read stubs for operand slot of fu. The
// returned slice is shared; callers must not modify it.
func (m *Machine) ReadStubs(fu FUID, slot int) []ReadStub {
	if slot >= len(m.readStubs[fu]) {
		return nil
	}
	return m.readStubs[fu][slot]
}

// WriteStubs returns the valid write stubs for the output of fu. The
// returned slice is shared; callers must not modify it.
func (m *Machine) WriteStubs(fu FUID) []WriteStub { return m.writeStubs[fu] }

// CopyDistance returns the minimum number of copy operations needed to
// move a value from register file a to register file b, or -1 when no
// copy path exists. Zero means the files are the same.
func (m *Machine) CopyDistance(a, b RFID) int { return m.copyDist[a][b] }

// CopyStepsFrom returns the single-copy moves available out of rf. The
// returned slice is shared; callers must not modify it.
func (m *Machine) CopyStepsFrom(rf RFID) []CopyStep { return m.CopySteps[rf] }

// CopyStepFUs returns, for each copy step out of rf that lands in a
// register file strictly closer to target, the candidate (fu, slot, to)
// triples, nearest-first. It is the primitive copy insertion uses to
// pick the unit performing a copy.
func (m *Machine) CopyStepFUs(rf, target RFID) []CopyChoice {
	var out []CopyChoice
	cur := m.copyDist[rf][target]
	if cur <= 0 {
		return nil
	}
	for _, st := range m.CopySteps[rf] {
		d := m.copyDist[st.To][target]
		if d >= 0 && d < cur {
			out = append(out, CopyChoice{FU: st.FU, Slot: st.Slot, To: st.To, Remaining: d})
		}
	}
	// Nearest-first, then deterministic by unit id.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Remaining < out[j-1].Remaining ||
			(out[j].Remaining == out[j-1].Remaining && out[j].FU < out[j-1].FU)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// MinCopies returns the minimum number of copy operations needed to
// communicate a value from the output of fuFrom to operand slot of
// fuTo, over all stub choices, or -1 when no route exists. Zero means a
// direct route (shared register file) is possible. The communication-
// cost heuristic of §4.6 uses this as its requiredCopies estimate.
func (m *Machine) MinCopies(fuFrom, fuTo FUID, slot int) int {
	if slot >= len(m.minCopies[fuFrom][fuTo]) {
		return -1
	}
	return m.minCopies[fuFrom][fuTo][slot]
}

// DistFUToRF returns the minimum copies needed to move a value from
// fu's output into rf (0 = a direct write stub exists; -1 =
// unreachable). Precomputed at Build.
func (m *Machine) DistFUToRF(fu FUID, rf RFID) int { return m.distFUToRF[fu][rf] }

// DistRFToInput returns the minimum copies needed to move a value
// staged in rf to operand slot of fu (0 = a direct read stub exists;
// -1 = unreachable). Precomputed at Build.
func (m *Machine) DistRFToInput(rf RFID, fu FUID, slot int) int {
	row := m.distRFToIn[rf][fu]
	if slot >= len(row) {
		return -1
	}
	return row[slot]
}

// WritableRFs returns the distinct register files fu's output writes
// directly, in id order. The returned slice is shared; callers must not
// modify it.
func (m *Machine) WritableRFs(fu FUID) []RFID { return m.writableRFs[fu] }

// CopyChoice is one way to advance a value one copy closer to a target
// register file.
type CopyChoice struct {
	FU        FUID
	Slot      int
	To        RFID
	Remaining int // copies still needed after this one
}

// Summary returns a one-line description used by the reporting tools.
func (m *Machine) Summary() string {
	return fmt.Sprintf("%s: %d FUs, %d RFs, %d buses, %d read ports, %d write ports",
		m.Name, len(m.FUs), len(m.RegFiles), len(m.Buses), len(m.ReadPorts), len(m.WritePorts))
}
