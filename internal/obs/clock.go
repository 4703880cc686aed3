package obs

import "time"

// This file is the wall-time side of the observability layer: one
// stack-based stage Clock. Its two users are the compiler's pass
// pipeline (lower → per interval {prioritize → place, with close-comms
// and insert-copies nested inside place} → regalloc → verify) and the
// daemon's request pipeline (resolve → cache probe → … → compile →
// serialize). The event stream above carries order on a logical clock;
// a Clock carries time. It describes the process, not the deterministic
// compilation, so it never enters a response body or a trace.
//
// Push suspends the caller's stage and Pop resumes it, so nested and
// recursive stages (place → close-comms → insert-copies → close-comms …
// through copy scheduling) attribute every nanosecond to exactly one
// stage, and the stages' wall times never sum past Elapsed.
//
// A Clock is owned by one goroutine at a time: one compilation or one
// request. Racing portfolio cells each push into a private Clock.

// Stage is one named stage's account on a Clock.
type Stage struct {
	Name  string
	Runs  int           // pushes
	Steps int           // work items credited through Step
	Fails int           // pops reporting failure
	Wall  time.Duration // self time: nested stages keep their own
	First time.Duration // offset of the stage's first push from the origin
}

// frame is one open stage: its account and the offset at which its
// current self-time segment began.
type frame struct {
	stage int
	since time.Duration
}

// Clock attributes self wall time and work counters to named stages.
// The zero value is not usable; NewClock stamps the origin.
type Clock struct {
	origin time.Time
	stages []Stage
	stack  []frame
	// Inline storage: the compiler has eight passes and the daemon's
	// request eight stages, so a Clock normally allocates only itself.
	stageBuf [8]Stage
	stackBuf [8]frame
}

// NewClock starts a clock whose origin is now.
func NewClock() *Clock {
	c := &Clock{origin: time.Now()}
	c.stages = c.stageBuf[:0]
	c.stack = c.stackBuf[:0]
	return c
}

// index returns the named stage's position, adding it on first use.
func (c *Clock) index(name string) int {
	for i := range c.stages {
		if c.stages[i].Name == name {
			return i
		}
	}
	c.stages = append(c.stages, Stage{Name: name})
	return len(c.stages) - 1
}

// Push opens one run of the named stage, suspending the enclosing one.
func (c *Clock) Push(name string) {
	now := time.Since(c.origin)
	if n := len(c.stack); n > 0 {
		f := &c.stack[n-1]
		c.stages[f.stage].Wall += now - f.since
	}
	i := c.index(name)
	st := &c.stages[i]
	if st.Runs == 0 {
		st.First = now
	}
	st.Runs++
	c.stack = append(c.stack, frame{stage: i, since: now})
}

// Pop closes the innermost open stage, counting a failure unless ok,
// and resumes the enclosing one.
func (c *Clock) Pop(ok bool) {
	now := time.Since(c.origin)
	n := len(c.stack) - 1
	f := c.stack[n]
	c.stack = c.stack[:n]
	st := &c.stages[f.stage]
	st.Wall += now - f.since
	if !ok {
		st.Fails++
	}
	if n > 0 {
		c.stack[n-1].since = now
	}
}

// Step credits n work items to the named stage.
func (c *Clock) Step(name string, n int) { c.stages[c.index(name)].Steps += n }

// Stages returns the accounts in first-use order. The slice aliases
// the clock's storage: read it once the owner is done pushing.
func (c *Clock) Stages() []Stage { return c.stages }

// Stage returns the named stage's account, zero when it never ran.
func (c *Clock) Stage(name string) Stage {
	for _, st := range c.stages {
		if st.Name == name {
			return st
		}
	}
	return Stage{}
}

// Origin is the clock's zero point in wall time.
func (c *Clock) Origin() time.Time { return c.origin }

// Elapsed is the time since the origin.
func (c *Clock) Elapsed() time.Duration { return time.Since(c.origin) }
