package obs

import (
	"testing"
	"time"
)

// TestClockSelfTime pins self-time attribution: a stage's Wall
// excludes the stages nested under it, so the stages' wall times sum
// to no more than Elapsed, through recursion too.
func TestClockSelfTime(t *testing.T) {
	c := NewClock()
	c.Push("outer")
	time.Sleep(2 * time.Millisecond)
	c.Push("inner")
	time.Sleep(3 * time.Millisecond)
	c.Push("outer") // recursive re-entry
	time.Sleep(time.Millisecond)
	c.Pop(true)
	c.Pop(true)
	time.Sleep(time.Millisecond)
	c.Pop(true)
	elapsed := c.Elapsed()

	outer, inner := c.Stage("outer"), c.Stage("inner")
	if outer.Runs != 2 || inner.Runs != 1 {
		t.Errorf("runs: outer %d inner %d, want 2 and 1", outer.Runs, inner.Runs)
	}
	if inner.Wall < 3*time.Millisecond {
		t.Errorf("inner wall %v, want >= 3ms", inner.Wall)
	}
	if outer.Wall < 4*time.Millisecond {
		t.Errorf("outer wall %v, want >= 4ms", outer.Wall)
	}
	var sum time.Duration
	for _, st := range c.Stages() {
		sum += st.Wall
	}
	if sum > elapsed {
		t.Errorf("stage walls sum to %v, more than the %v elapsed: nested time counted twice", sum, elapsed)
	}
	if c.Origin().IsZero() {
		t.Error("origin is zero")
	}
}

// TestClockCounters pins runs, steps and fails per stage, and that
// stages are listed in first-push order with first-start offsets that
// do not decrease along it.
func TestClockCounters(t *testing.T) {
	c := NewClock()
	for _, name := range []string{"resolve", "cache-probe", "compile", "resolve", "serialize"} {
		c.Push(name)
		c.Pop(name != "compile")
	}
	c.Step("compile", 3)
	c.Step("compile", 2)

	want := []string{"resolve", "cache-probe", "compile", "serialize"}
	stages := c.Stages()
	if len(stages) != len(want) {
		t.Fatalf("%d stages, want %d: %+v", len(stages), len(want), stages)
	}
	for i, st := range stages {
		if st.Name != want[i] {
			t.Errorf("stage %d is %q, want %q", i, st.Name, want[i])
		}
		if i > 0 && st.First < stages[i-1].First {
			t.Errorf("stage %q starts at %v, before %q at %v", st.Name, st.First, stages[i-1].Name, stages[i-1].First)
		}
	}
	if st := c.Stage("resolve"); st.Runs != 2 || st.Fails != 0 {
		t.Errorf("resolve %+v, want 2 runs 0 fails", st)
	}
	if st := c.Stage("compile"); st.Runs != 1 || st.Fails != 1 || st.Steps != 5 {
		t.Errorf("compile %+v, want 1 run 1 fail 5 steps", st)
	}
	if st := c.Stage("never"); st != (Stage{}) {
		t.Errorf("absent stage %+v, want zero", st)
	}
}

// TestClockRequestAllocs pins that a request's eight stages fit the
// inline storage: the clock itself is the only allocation.
func TestClockRequestAllocs(t *testing.T) {
	names := []string{"resolve", "cache-probe", "disk-probe", "singleflight-wait",
		"queue-wait", "pool-acquire", "compile", "serialize"}
	allocs := testing.AllocsPerRun(100, func() {
		c := NewClock()
		for _, name := range names {
			c.Push(name)
			c.Pop(true)
		}
		sink = c
	})
	if allocs > 1 {
		t.Errorf("eight-stage request allocates %v times, want at most 1", allocs)
	}
}

var sink *Clock

// TestClockWarmPushPopZeroAlloc pins the per-run cost on a warm clock:
// a nested push/pop pair allocates nothing.
func TestClockWarmPushPopZeroAlloc(t *testing.T) {
	c := NewClock()
	c.Push("place")
	allocs := testing.AllocsPerRun(100, func() {
		c.Push("close-comms")
		c.Step("close-comms", 1)
		c.Pop(true)
	})
	c.Pop(true)
	if allocs != 0 {
		t.Errorf("warm push/pop allocates %v times, want 0", allocs)
	}
}
