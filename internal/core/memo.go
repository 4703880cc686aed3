package core

import (
	"sync"

	"repro/internal/machine"
	"repro/internal/rules"
)

// This file implements the per-compilation infeasibility memo: hashed
// signatures of §4.4 stub-permutation problems already proven
// unsatisfiable, so the solver never re-proves a dead end. The same
// permutation state recurs constantly — across the placement retries of
// one interval attempt (an operation rejected at one cycle re-poses
// many of the same per-cycle solves at the next) and across the
// initiation intervals of the ladder — and a failed solve may burn
// thousands of DFS steps re-deriving the same exhaustion each time.
//
// Soundness rests on two rules. First, the signature covers the
// complete solve problem: a domain tag (writes vs reads), every
// obstacle placement (stub identity plus value instance plus, for
// reads, the operand nonce), and every flex item with its value
// instance and the full contents of its ordered candidate list — pin
// filters and sibling-bus promotion reshape those lists, so two solves
// with equal obstacles but different candidate sets hash apart. Second,
// only completed failures are recorded: a search abandoned by budget
// exhaustion, by cooperative cancellation, or by an injected fault
// proves nothing and must not poison the memo. A hit therefore
// short-circuits exactly the searches that were going to fail anyway,
// which is why schedules stay bit-identical with the memo on: the
// success path never changes, and a failure returns false either way.
//
// The memo key is 128 bits (two independently mixed 64-bit lanes), so
// at the memo's size cap a colliding pair is vanishingly improbable;
// a collision could only suppress a search that would have failed or
// — the harmful case — misreport a satisfiable state, which the
// differential goldens would surface as a schedule change.

// memoKey is a 128-bit problem signature.
type memoKey struct{ a, b uint64 }

// memoSig accumulates a signature incrementally, allocation-free. The
// two lanes mix every word with different full-period multipliers and
// different pre-mix operators, so they act as independent hashes.
type memoSig struct{ a, b uint64 }

// newMemoSig seeds a signature with a domain tag separating write-side
// from read-side problems.
func newMemoSig(tag uint64) memoSig {
	s := memoSig{a: 0x243F6A8885A308D3, b: 0x13198A2E03707344}
	s.mix(tag)
	return s
}

// mix folds one word into both lanes.
func (s *memoSig) mix(x uint64) {
	a := (s.a ^ x) * 0x9E3779B97F4A7C15
	s.a = a ^ (a >> 29)
	b := (s.b + x) * 0xBF58476D1CE4E5B9
	s.b = b ^ (b >> 31)
}

// mixValue folds a value instance.
func (s *memoSig) mixValue(v rules.Value) {
	inv := uint64(0)
	if v.Inv {
		inv = 1
	}
	s.mix(uint64(uint32(v.ID)) | uint64(uint32(v.Flat))<<32)
	s.mix(uint64(uint32(v.Uniq)) | inv<<32)
}

// mixWriteStub folds a write stub's full path identity.
func (s *memoSig) mixWriteStub(w machine.WriteStub) {
	s.mix(uint64(uint16(w.FU)) | uint64(uint16(w.Bus))<<16 |
		uint64(uint16(w.Port))<<32 | uint64(uint16(w.RF))<<48)
}

// mixReadStub folds a read stub's full path identity.
func (s *memoSig) mixReadStub(r machine.ReadStub) {
	s.mix(uint64(uint16(r.RF)) | uint64(uint16(r.Port))<<16 |
		uint64(uint16(r.Bus))<<32 | uint64(uint16(r.FU))<<48)
	s.mix(uint64(uint32(r.Slot)))
}

// key finalizes the signature.
func (s *memoSig) key() memoKey {
	t := *s
	t.mix(0x2545F4914F6CDD1D)
	return memoKey{a: t.a, b: t.b}
}

// memoEntryCap bounds the memo's size: past the cap, lookups keep
// serving hits but new failures are no longer recorded. The cap is a
// safety valve, not a tuning knob — at 16 bytes an entry it bounds the
// memo near 32 MiB on a degenerate compilation.
const memoEntryCap = 1 << 21

// permMemo is the infeasibility memo of one compilation. Each memo has
// one owner goroutine — the ladder, or one portfolio cell — so the
// mutex costs one uncontended lock per failed or memoized solve; it
// stays so that the memo is safe to share if a caller ever does. An
// entry only ever replaces a search with the failure it was bound to
// reach, so sharing could never change an interval's outcome.
type permMemo struct {
	mu   sync.Mutex
	seen map[memoKey]struct{}
}

func newPermMemo() *permMemo {
	return &permMemo{seen: make(map[memoKey]struct{})}
}

// hit reports whether k is a recorded dead end.
func (m *permMemo) hit(k memoKey) bool {
	m.mu.Lock()
	_, ok := m.seen[k]
	m.mu.Unlock()
	return ok
}

// record marks k as a proven dead end.
func (m *permMemo) record(k memoKey) {
	m.mu.Lock()
	if len(m.seen) < memoEntryCap {
		m.seen[k] = struct{}{}
	}
	m.mu.Unlock()
}

// Candidate-list hashing. A flex item's signature must cover the full
// ordered contents of its candidate list, but mixing every stub on
// every solve would make the signature cost scale with list length —
// and the §5 distributed machines have class-wide write lists hundreds
// of stubs long. Almost every list, however, is an interned
// routing-table slice (or a truncated prefix of one): immutable for the
// engine's lifetime and reused across thousands of solves. Those hash
// once into a per-engine cache keyed by slice identity — base pointer,
// index pointer, length; the base pointer matters because routing-table
// interning can share one index slice between tables whose base stubs
// differ. Arena-backed lists (pin filters, first-serve sibling
// promotion, phi scoring) are rebuilt into reused scratch each solve,
// so pointer identity means nothing there and the caller passes
// stable=false to hash contents directly — they are the rare case.

type wListKey struct {
	b *machine.WriteStub
	p *int32
	n int
}

type rListKey struct {
	b *machine.ReadStub
	p *int32
	n int
}

// writeListHash folds one ordered write-candidate list to a word.
func writeListHash(base []machine.WriteStub, idx []int32) uint64 {
	s := newMemoSig(3)
	for _, ci := range idx {
		s.mixWriteStub(base[ci])
	}
	return s.key().a
}

// readListHash folds one ordered read-candidate list to a word.
func readListHash(base []machine.ReadStub, idx []int32) uint64 {
	s := newMemoSig(4)
	for _, ci := range idx {
		s.mixReadStub(base[ci])
	}
	return s.key().a
}

// writeListSig returns the content hash of a write-candidate list,
// cached under its slice identity when the list is an immutable
// routing-table slice. Callers guarantee len(idx) > 0.
func (e *engine) writeListSig(base []machine.WriteStub, idx []int32, stable bool) uint64 {
	if !stable {
		return writeListHash(base, idx)
	}
	k := wListKey{b: &base[0], p: &idx[0], n: len(idx)}
	if h, ok := e.wListSig[k]; ok {
		return h
	}
	h := writeListHash(base, idx)
	if e.wListSig == nil {
		e.wListSig = make(map[wListKey]uint64, 64)
	}
	e.wListSig[k] = h
	return h
}

// readListSig is the read-side analogue of writeListSig.
func (e *engine) readListSig(base []machine.ReadStub, idx []int32, stable bool) uint64 {
	if !stable {
		return readListHash(base, idx)
	}
	k := rListKey{b: &base[0], p: &idx[0], n: len(idx)}
	if h, ok := e.rListSig[k]; ok {
		return h
	}
	h := readListHash(base, idx)
	if e.rListSig == nil {
		e.rListSig = make(map[rListKey]uint64, 64)
	}
	e.rListSig[k] = h
	return h
}
