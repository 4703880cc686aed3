// Package obs is the compiler's structured observability layer: a
// zero-overhead-when-disabled event schema that the scheduling engine,
// the portfolio racer, and the cycle-accurate simulator all emit into
// at their decision points — pass begin/end, communication open/close,
// stub placement, stub-permutation search steps, copy-insertion
// recursion, journal rollbacks, and portfolio variant lifecycle.
//
// The layer is deliberately passive: a Tracer only observes, so
// enabling one cannot perturb scheduling decisions (the differential
// goldens pin this). Event identity comes from a logical clock, not
// wall time, so a recorded stream — and every export derived from it —
// is deterministic and bit-identical across runs of a deterministic
// compilation.
//
// Disabled means nil: every emit site in the compiler guards on a nil
// Tracer before an Event is even constructed, so the no-op path costs
// one pointer compare and allocates nothing (pinned by an
// AllocsPerRun test in internal/core).
package obs

import "sync"

// Kind enumerates the event types of the schema. The scheduler kinds
// map onto the Fig. 11 decision states of the paper (see DESIGN.md §4.8
// for the full taxonomy).
type Kind uint8

const (
	// KindPassBegin/KindPassEnd bracket one run of a named pipeline
	// pass (or nested stage: close-comms, insert-copies). Ok on the end
	// event reports whether the pass succeeded.
	KindPassBegin Kind = iota
	KindPassEnd
	// KindIIBegin/KindIIEnd bracket one initiation-interval attempt.
	KindIIBegin
	KindIIEnd
	// KindOpPlace is a tentative operation placement on a (unit, cycle)
	// — the top of the Fig. 11 flow. Rejections surface as a later
	// KindRollback.
	KindOpPlace
	// KindCommOpen marks a communication acquiring its first tentative
	// write stub; KindCommClose marks a route being frozen (§4.2
	// "closed"); KindCommSplit marks replacement by two children around
	// an inserted copy (Fig. 22).
	KindCommOpen
	KindCommClose
	KindCommSplit
	// KindStubWrite/KindStubRead record a write- or read-stub
	// placement; Final distinguishes pinned (frozen) placements from
	// tentative ones that may still be re-chosen.
	KindStubWrite
	KindStubRead
	// KindPermAttempt/Reject/Accept are the §4.4 bounded
	// stub-permutation search steps: one candidate stub tried at one
	// DFS depth, and whether it fit.
	KindPermAttempt
	KindPermReject
	KindPermAccept
	// KindCopyInsert marks one copy operation materialized to bridge a
	// route (§4.3 step 5); Depth is the splitting recursion depth.
	KindCopyInsert
	// KindRollback marks a journal rollback; Value is the number of
	// journal entries undone.
	KindRollback
	// Portfolio variant lifecycle (CompilePortfolio).
	KindVariantBegin
	KindVariantWin
	// Simulator events: one operation issue and one register-file
	// writeback, re-emitted by internal/vliwsim through this schema.
	KindSimIssue
	KindSimWriteback
	// Robustness lifecycle. KindCancel marks a compilation observing
	// cancellation (II is the interval being abandoned); KindDegrade
	// marks one degradation-ladder rung starting (Name is the rung);
	// KindRecover marks a pass panic converted into a structured
	// internal error (Track/Name are the recovering pass).
	KindCancel
	KindDegrade
	KindRecover
	// KindPermMemo marks a §4.4 solve short-circuited by the
	// infeasibility memo: the solve's signature matched a permutation
	// state already proven unsatisfiable, so no search ran. Value is
	// the engine's running memo-hit count.
	KindPermMemo
)

var kindNames = [...]string{
	KindPassBegin:    "pass-begin",
	KindPassEnd:      "pass-end",
	KindIIBegin:      "ii-begin",
	KindIIEnd:        "ii-end",
	KindOpPlace:      "op-place",
	KindCommOpen:     "comm-open",
	KindCommClose:    "comm-close",
	KindCommSplit:    "comm-split",
	KindStubWrite:    "stub-write",
	KindStubRead:     "stub-read",
	KindPermAttempt:  "perm-attempt",
	KindPermReject:   "perm-reject",
	KindPermAccept:   "perm-accept",
	KindCopyInsert:   "copy-insert",
	KindRollback:     "rollback",
	KindVariantBegin: "variant-begin",
	KindVariantWin:   "variant-win",
	KindSimIssue:     "sim-issue",
	KindSimWriteback: "sim-writeback",
	KindCancel:       "cancel",
	KindDegrade:      "degrade",
	KindRecover:      "recover",
	KindPermMemo:     "perm-memo",
}

// String names the kind for exports and diagnostics.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one observation. Only the fields meaningful for the Kind
// are set; identifier fields hold machine/IR ids (resolvable against
// the Machine and Schedule), not display strings, so an Event stays
// small and the hot emit path stays allocation-free. Seq is the
// logical clock stamped by the Recorder: a total order that stands in
// for time, making recorded streams deterministic.
type Event struct {
	Seq uint64
	// Value is a small payload: rollback length, memo-hit count, or the
	// simulator's computed result; HasValue marks it meaningful. Args
	// carries the simulator's resolved operand values.
	Value int64
	Args  []int64
	// Track names the trace track the event belongs to: the pass name
	// for pass events, the contended resource (bus name, unit name) for
	// placement events, "interval", "permute", "copies", "journal",
	// "comms", or "portfolio".
	Track string
	// Name is a display label: pass name, operation or variant name.
	Name string

	Op    int32 // operation id (-0 when n/a; see Kind docs)
	Comm  int32 // communication id
	Cycle int32 // flat cycle within the op's block timeline
	Iter  int32 // simulator: loop iteration (-1 preamble)
	Depth int32 // DFS / copy-recursion depth
	II    int32 // initiation interval in effect
	FU    int32 // functional unit id
	RF    int32 // register file id
	Bus   int32 // bus id
	Port  int32 // read- or write-port id
	Slot  int32 // operand slot

	Kind     Kind
	Final    bool // stub events: pinned (final) vs tentative
	Ok       bool // end events: success
	HasValue bool
}

// Tracer receives events. Implementations must be safe for concurrent
// Emit calls when handed to CompilePortfolio. A nil Tracer means
// tracing is disabled: every emit site checks for nil before
// constructing an Event, so nil is the zero-overhead default.
type Tracer interface {
	Emit(Event)
}

// Recorder is the standard Tracer: it stamps each event with the next
// logical-clock value and keeps the stream in memory for export.
//
// Storage is chunked, not one growing slice: a traced compilation of a
// hard kernel records millions of permutation-search events, and
// slice-doubling would copy (and fault in) each of them several times
// over. Chunks of geometrically increasing capacity touch every event
// exactly once on the emit path.
type Recorder struct {
	mu     sync.Mutex
	seq    uint64
	chunks [][]Event
	flat   []Event // cached Events() result, invalidated by Emit
}

// Chunk capacities: geometric from first to max, so small traces stay
// small and large ones amortize chunk bookkeeping.
const (
	firstChunkCap = 1 << 9
	maxChunkCap   = 1 << 16
)

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit stamps and stores one event.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	n := len(r.chunks)
	if n == 0 || len(r.chunks[n-1]) == cap(r.chunks[n-1]) {
		size := firstChunkCap
		if n > 0 {
			if size = 2 * cap(r.chunks[n-1]); size > maxChunkCap {
				size = maxChunkCap
			}
		}
		r.chunks = append(r.chunks, make([]Event, 0, size))
		n++
	}
	r.chunks[n-1] = append(r.chunks[n-1], ev)
	r.flat = nil
	r.mu.Unlock()
}

// Events returns the recorded stream in logical-clock order. The
// flattened slice is built on first call and cached until the next
// Emit; do not Emit concurrently with reading it.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flat == nil {
		total := 0
		for _, c := range r.chunks {
			total += len(c)
		}
		r.flat = make([]Event, 0, total)
		for _, c := range r.chunks {
			r.flat = append(r.flat, c...)
		}
	}
	return r.flat
}

// Len reports how many events have been recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.chunks {
		n += len(c)
	}
	return n
}

// multi fans one stream out to several tracers.
type multi []Tracer

func (m multi) Emit(ev Event) {
	for _, t := range m {
		t.Emit(ev)
	}
}

// Multi combines tracers into one; nil entries are dropped. It returns
// nil when nothing remains, so the result composes with the nil-means-
// disabled convention.
func Multi(tracers ...Tracer) Tracer {
	var out multi
	for _, t := range tracers {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
