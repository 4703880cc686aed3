package core

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
)

// TestProbeSequenceShape pins the probe ladder's contract: it starts at
// the minimum interval, is strictly increasing, never leaves the search
// bounds, and depends only on the bounds.
func TestProbeSequenceShape(t *testing.T) {
	for _, tc := range []struct{ min, max int }{
		{1, 1}, {1, 8}, {1, 64}, {3, 64}, {1, 1024}, {17, 23},
	} {
		seq := probeSequence(tc.min, tc.max)
		if len(seq) == 0 || seq[0] != tc.min {
			t.Fatalf("probeSequence(%d,%d) = %v: must start at min", tc.min, tc.max, seq)
		}
		for i := 1; i < len(seq); i++ {
			if seq[i] <= seq[i-1] {
				t.Fatalf("probeSequence(%d,%d) = %v: not strictly increasing", tc.min, tc.max, seq)
			}
		}
		if last := seq[len(seq)-1]; last > tc.max {
			t.Fatalf("probeSequence(%d,%d) ends at %d past max", tc.min, tc.max, last)
		}
	}
}

// TestMemoHitsNonzero pins the infeasibility memo doing real work on a
// hard kernel: the deep Sort-on-distributed search must report memo
// hits, and the memo (active by default) must not change the schedule —
// the differential goldens in internal/kernels pin that globally; here
// we pin the counters so a silently disabled memo fails loudly. Most of
// that search's steps went to solves that ran out of budget: replaying
// them from the memo takes its winning attempt from 3.36 M perm steps
// to 0.86 M.
func TestMemoHitsNonzero(t *testing.T) {
	k := kernels.ByName("Sort").MustKernel()
	s, err := Compile(k, machine.Distributed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.MemoHits == 0 {
		t.Fatal("infeasibility memo recorded zero hits on Sort/distributed")
	}
	if s.Stats.PermSteps >= 1_500_000 {
		t.Fatalf("Sort/distributed took %d perm steps, want < 1,500,000: budget-exhausted solves are not replayed", s.Stats.PermSteps)
	}
}
