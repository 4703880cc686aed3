package core

import (
	"testing"

	"repro/internal/depgraph"
	"repro/internal/faultinject"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/rules"
)

// TestMemoExhaustedEntryKeys pins how the two kinds of memo entry are
// keyed, deriving the keys as solveWrites and solveReads do: a proven
// dead end hits whatever order its items are searched in, while a
// budget-exhausted search replays only for the same problem, order
// and budget.
func TestMemoExhaustedEntryKeys(t *testing.T) {
	type item struct {
		closing bool
		rangeW  int
	}
	keys := func(tag uint64, order []item, budget int) (proven, exhausted memoKey) {
		sig := newMemoSig(tag)
		for i := range order {
			sig.mixValue(rules.Value{ID: 7, Flat: int32(i)})
			sig.mix(uint64(100 + i)) // candidate-list hash
		}
		proven = sig.key()
		for _, it := range order {
			sig.mixOrder(it.closing, it.rangeW)
		}
		return proven, sig.exhaustedKey(budget)
	}
	order := []item{{true, 3}, {false, unboundedRange}, {true, 1}}
	reordered := []item{{true, 3}, {true, 1}, {false, unboundedRange}}
	wider := []item{{true, 4}, {false, unboundedRange}, {true, 1}}

	m := newPermMemo()
	p, x := keys(1, order, permBudgetDefault)
	if p == x {
		t.Fatal("proven and exhausted keys coincide")
	}
	m.record(x)
	if !m.hit(keys(1, order, permBudgetDefault)) {
		t.Error("exhausted entry does not replay for the same signature, order and budget")
	}
	for _, miss := range []struct {
		name   string
		tag    uint64
		order  []item
		budget int
	}{
		{"order", 1, reordered, permBudgetDefault},
		{"copy range", 1, wider, permBudgetDefault},
		{"budget", 1, order, permBudgetDefault / 2},
		{"domain", 2, order, permBudgetDefault},
	} {
		if m.hit(keys(miss.tag, miss.order, miss.budget)) {
			t.Errorf("exhausted entry replays for a different %s", miss.name)
		}
	}

	m = newPermMemo()
	m.record(p)
	for name, order := range map[string][]item{"same": order, "reordered": reordered, "copy range": wider} {
		for _, budget := range []int{1, permBudgetDefault} {
			if !m.hit(keys(1, order, budget)) {
				t.Errorf("proven entry misses for the %s order at budget %d", name, budget)
			}
		}
	}
	if m.hit(keys(2, order, permBudgetDefault)) {
		t.Error("write-side proven entry hits a read-side problem")
	}
}

// memoAttempt runs one DCT-on-distributed attempt at II 10 with a
// one-step permutation budget — so every search that takes a step
// either succeeds on its first candidate or runs out of budget — into
// a fresh memo, and returns the memo. poll, when non-nil, is the
// attempt's cancellation hook and sees the memo at every poll.
func memoAttempt(t *testing.T, faults *faultinject.Plane, poll func(*permMemo) bool) *permMemo {
	t.Helper()
	k := kernels.ByName("DCT").MustKernel()
	m := machine.Distributed()
	memo := newPermMemo()
	var cancel func() bool
	if poll != nil {
		cancel = func() bool { return poll(memo) }
	}
	opts := Options{PermBudget: 1, Faults: faults}
	if _, _, err := tryII(k, m, depgraph.Build(k, m), opts, 10, cancel, memo, &Stats{}, obs.NewClock(), nil); err != nil {
		t.Fatal(err)
	}
	return memo
}

// TestInjectedSolverExhaustRecordsNoMemoEntry pins that a search the
// fault plane forced to exhaustion proves nothing: with an Exhaust rule
// firing at every solver probe, every search stops at its first step —
// where a one-step budget reaches 0, as a real exhaustion does — and
// the memo must stay empty. The same attempt without the rule does
// record failures, so the check is not vacuous.
func TestInjectedSolverExhaustRecordsNoMemoEntry(t *testing.T) {
	if n := len(memoAttempt(t, nil, nil).seen); n == 0 {
		t.Fatal("the attempt records no failed solve without faults")
	}
	plane := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SiteSolver, Nth: 1, Every: 1, Action: faultinject.Exhaust,
	})
	if n := len(memoAttempt(t, plane, nil).seen); n != 0 {
		t.Fatalf("injected exhaustions recorded %d memo entries, want 0", n)
	}
}

// TestCancelledSolveRecordsNoMemoEntry pins that a search stopped by
// cancellation records nothing. A reference attempt notes the memo's
// size at every cancellation poll. Any entry recorded between two
// polls belongs to the search that made the first of them, since every
// search polls at its first step. Cancelling at such a poll must leave
// the memo at its size there. The search that sees the cancellation
// has already spent its one-step budget, so this also catches a
// cancelled search recorded as an exhausted one.
func TestCancelledSolveRecordsNoMemoEntry(t *testing.T) {
	var sizes []int
	memoAttempt(t, nil, func(m *permMemo) bool {
		sizes = append(sizes, len(m.seen))
		return false
	})
	checked := 0
	for i := 0; i+1 < len(sizes) && checked < 16; i++ {
		if sizes[i+1] == sizes[i] {
			continue
		}
		checked++
		polls := 0
		memo := memoAttempt(t, nil, func(*permMemo) bool {
			polls++
			return polls > i
		})
		if got := len(memo.seen); got != sizes[i] {
			t.Fatalf("cancelled at poll %d: memo has %d entries, want %d", i+1, got, sizes[i])
		}
	}
	if checked == 0 {
		t.Fatal("the reference attempt recorded no failed solve")
	}
}
