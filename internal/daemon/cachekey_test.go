package daemon

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/machine"
)

// TestKeyCanonicalizesOptionDefaults is the satellite contract: two
// option structs that differ only in spelling a default as zero — or in
// the order their JSON fields arrived — address the same cache entry.
func TestKeyCanonicalizesOptionDefaults(t *testing.T) {
	k := kernels.Motivating()
	m := machine.MotivatingExample()

	zero := core.Options{}
	spelled := core.Options{
		PermBudget:    core.DefaultPermBudget,
		MaxCandidates: core.DefaultMaxCandidates,
		AttemptBudget: core.DefaultAttemptBudget,
	}
	if Key(k, m, zero, false) != Key(k, m, spelled, false) {
		t.Error("zero options and spelled-out defaults produce different keys")
	}

	// JSON field order cannot matter: the canonical encoding emits
	// fields in its own fixed order, so two orderings of the same
	// request options decode to the same key.
	var a, b OptionsSpec
	if err := json.Unmarshal([]byte(`{"perm_budget": 512, "max_ii": 8, "two_phase": true}`), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"two_phase": true, "max_ii": 8, "perm_budget": 512}`), &b); err != nil {
		t.Fatal(err)
	}
	if Key(k, m, a.options(), false) != Key(k, m, b.options(), false) {
		t.Error("JSON field order changed the key")
	}
}

// TestKeySensitivity pins that every schedule-affecting input moves the
// key, and that the excluded passive fields do not.
func TestKeySensitivity(t *testing.T) {
	k := kernels.Motivating()
	m := machine.MotivatingExample()
	base := Key(k, m, core.Options{}, false)

	for name, variant := range map[string]string{
		"kernel":    Key(kernels.ByName("DCT").MustKernel(), m, core.Options{}, false),
		"machine":   Key(k, machine.Central(), core.Options{}, false),
		"budget":    Key(k, m, core.Options{PermBudget: 512}, false),
		"pipeline":  Key(k, m, core.Options{CycleOrder: true}, false),
		"portfolio": Key(k, m, core.Options{}, true),
		"ladder":    Key(k, m, core.Options{Degrade: core.DefaultDegradeLadder()}, false),
	} {
		if variant == base {
			t.Errorf("changing %s did not change the key", name)
		}
	}

	// The fault plane is test-only and never changes a schedule's
	// identity; it must not split the cache.
	withFaults := core.Options{}
	withFaults.Faults = nil // explicit: planes are excluded by construction
	if Key(k, m, withFaults, false) != base {
		t.Error("fault plane changed the key")
	}

	// Distinct rung configurations are distinct keys.
	l1 := &core.DegradeLadder{Rungs: []core.DegradeRung{{Name: "a", PermBudget: 1}}}
	l2 := &core.DegradeLadder{Rungs: []core.DegradeRung{{Name: "a", PermBudget: 2}}}
	if Key(k, m, core.Options{Degrade: l1}, false) == Key(k, m, core.Options{Degrade: l2}, false) {
		t.Error("different ladders share a key")
	}
}

// TestCanonicalOptionsScheduleIdentically pins that Canonical is
// behavior-preserving: the canonicalized options compile to a
// bit-identical schedule.
func TestCanonicalOptionsScheduleIdentically(t *testing.T) {
	k := kernels.Motivating()
	m := machine.MotivatingExample()
	s1, err := core.Compile(k, m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := core.Compile(k, m, core.Options{}.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Error("canonicalized options changed the schedule")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(100)
	big := make([]byte, 40)
	c.put("a", big) // 41 bytes
	c.put("b", big) // 82 bytes
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted prematurely")
	}
	// a is now most recent; inserting c (41 bytes) must evict b.
	c.put("c", big)
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a (recently used) was evicted instead")
	}
	entries, bytes := c.stats()
	if entries != 2 || bytes != 82 {
		t.Errorf("stats after eviction: %d entries %d bytes", entries, bytes)
	}
	// An entry larger than the whole budget is refused outright.
	c.put("huge", make([]byte, 200))
	if _, ok := c.get("huge"); ok {
		t.Error("over-budget entry was cached")
	}
}

// TestCanonicalConfigText pins the literal cache-key config text, so a
// change to how the ablation switches or the ladder's rungs are spelled
// in Go cannot move a key in the memory tier or the disk tier.
func TestCanonicalConfigText(t *testing.T) {
	all := core.Options{CycleOrder: true, TwoPhase: true, NoCostHeuristic: true, RegisterAware: true}
	want := "order=cycle preassign=true cost=false regaware=true\n" +
		"maxii=0 perm=4096 cand=1024 scan=0 attempt=128\n" +
		"portfolio=false\n"
	if got := canonicalConfig(all, false); got != want {
		t.Errorf("all ablation switches:\ngot:\n%s\nwant:\n%s", got, want)
	}

	l := core.DefaultDegradeLadder()
	l.Rungs = append(l.Rungs, ladder([]RungSpec{{Name: "cheap", Greedy: true}}).Rungs...)
	want = "order=priority preassign=false cost=true regaware=false\n" +
		"maxii=0 perm=4096 cand=1024 scan=0 attempt=128\n" +
		"portfolio=true\n" +
		"rung name=fast-search maxii=0 boost=0 perm=512 attempt=32 scan=0\n" +
		"rung name=relaxed-ii maxii=0 boost=64 perm=1024 attempt=0 scan=0\n" +
		"rung name=greedy maxii=0 boost=0 perm=256 attempt=16 scan=0 order=cycle preassign=false cost=false regaware=false\n" +
		"rung name=cheap maxii=0 boost=0 perm=0 attempt=0 scan=0 order=cycle preassign=false cost=false regaware=false\n"
	if got := canonicalConfig(core.Options{Degrade: l}, true); got != want {
		t.Errorf("stock ladder plus a greedy request rung:\ngot:\n%s\nwant:\n%s", got, want)
	}

	const key = "242b126dc4ec2656dfc9e7ca36784e1bee9b4db637ac6888f32eecb2bb5d2164"
	if got := Key(kernels.Motivating(), machine.MotivatingExample(), core.Options{Degrade: core.DefaultDegradeLadder()}, false); got != key {
		t.Errorf("fig4/fig5 key with the stock ladder = %s, want %s", got, key)
	}
}
