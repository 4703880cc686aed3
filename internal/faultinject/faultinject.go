// Package faultinject is a deterministic, seed-driven fault plane for
// robustness testing of the compilation pipeline. Instrumented code
// probes named sites; rules armed on a Plane decide — purely from the
// per-rule match count, never from wall time or randomness at probe
// time — whether the probe passes through, panics, reports forced
// budget exhaustion, or stalls.
//
// The plane follows the nil-means-disabled convention of obs.Tracer:
// a nil *Plane is fully inert, every call site guards with a single
// pointer compare, and the disabled path allocates nothing (the
// internal/core AllocsPerRun test pins this through the solver's probe
// sites). Because firing is driven by deterministic counters, a fault
// schedule reproduces exactly in sequential code; under a concurrent
// portfolio only the interleaving of counter increments varies, never
// whether the configured number of faults fires.
package faultinject

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site enumerates the instrumented injection points.
type Site uint8

const (
	// SitePass fires in the pass pipeline's runPass, once per pass run;
	// the probe label is the pass name ("lower", "place", ...).
	SitePass Site = iota
	// SiteSolver fires on every §4.4 stub-permutation search step; the
	// probe label is empty.
	SiteSolver
	// SitePortfolio fires when a portfolio worker starts one
	// (interval, variant) cell; the probe label is the variant name.
	SitePortfolio
	// SiteCacheRead fires when the daemon's disk cache tier reads an
	// entry; the probe label is the cache key. It is an IO site: probed
	// through ProbeIO, so Err/Torn/Corrupt rules apply.
	SiteCacheRead
	// SiteCacheWrite fires when the daemon's disk cache tier writes an
	// entry; the probe label is the cache key. An IO site, like
	// SiteCacheRead.
	SiteCacheWrite
)

var siteNames = [...]string{
	SitePass:       "pass",
	SiteSolver:     "solver",
	SitePortfolio:  "portfolio",
	SiteCacheRead:  "cache-read",
	SiteCacheWrite: "cache-write",
}

// String names the site for specs and diagnostics.
func (s Site) String() string {
	if int(s) < len(siteNames) {
		return siteNames[s]
	}
	return "unknown"
}

// SiteByName resolves a spec-file site name.
func SiteByName(name string) (Site, bool) {
	for i, n := range siteNames {
		if n == name {
			return Site(i), true
		}
	}
	return 0, false
}

// Action is what a firing rule does to the probing code.
type Action uint8

const (
	// Panic panics with an *Injected value; the pipeline's recovery
	// must convert it into a structured internal error.
	Panic Action = iota
	// Exhaust makes Probe return true: the site treats its budget as
	// spent (the solver zeroes its permutation budget, a pass fails).
	Exhaust
	// Delay sleeps Rule.Sleep before continuing — an artificial
	// slow-down for cancellation-latency stress tests.
	Delay
	// Err makes an IO probe (ProbeIO) report a failed operation: the
	// site behaves as if the read or write returned an error. Compile
	// sites (Probe) ignore it.
	Err
	// Torn makes an IO write probe leave a truncated frame at the final
	// path — the on-disk state of a crash mid-write — and an IO read
	// probe observe one. Compile sites ignore it.
	Torn
	// Corrupt makes an IO probe flip a payload byte after the checksum
	// was computed, so the entry decodes as checksum-mismatched.
	// Compile sites ignore it.
	Corrupt
)

var actionNames = [...]string{
	Panic: "panic", Exhaust: "exhaust", Delay: "delay",
	Err: "err", Torn: "torn", Corrupt: "corrupt",
}

// String names the action for specs and diagnostics.
func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return "unknown"
}

// ActionByName resolves a spec-file action name.
func ActionByName(name string) (Action, bool) {
	for i, n := range actionNames {
		if n == name {
			return Action(i), true
		}
	}
	return 0, false
}

// Rule arms one fault. A rule matches a probe when the site matches
// and its Label is empty or equals the probe's label. Matching probes
// are counted per rule; the rule fires on match counts n with
//
//	n >= Nth, (n-Nth) divisible by Every (Every 0: only n == Nth),
//	and n <= Until (Until 0: no upper bound).
//
// Nth 0 derives a deterministic value from the plane's seed, so a
// seed sweep explores different fault positions without hand-picking
// counts.
type Rule struct {
	Site   Site
	Label  string
	Nth    uint64
	Every  uint64
	Until  uint64
	Action Action
	// Sleep is the Delay action's stall per firing.
	Sleep time.Duration
}

// seedWindow bounds seed-derived Nth values: small enough that a
// derived fault fires within any non-trivial compilation.
const seedWindow = 1024

// Injected is the panic value of the Panic action, carrying where the
// fault fired so recovery layers can surface it in structured errors.
type Injected struct {
	Site  Site
	Label string
	// N is the rule's match count at firing time.
	N uint64
}

func (i *Injected) Error() string {
	if i.Label != "" {
		return fmt.Sprintf("faultinject: injected panic at %s:%s (match %d)", i.Site, i.Label, i.N)
	}
	return fmt.Sprintf("faultinject: injected panic at %s (match %d)", i.Site, i.N)
}

// rule is an armed Rule plus its atomic match counter.
type rule struct {
	Rule
	count atomic.Uint64
}

// Plane is a set of armed rules. A nil plane is disabled.
type Plane struct {
	rules []rule
	seed  int64
}

// New arms a plane. Rules with Nth 0 get a deterministic count in
// [1, seedWindow] derived from the seed and the rule's index, so two
// planes built from the same seed and rules fire identically.
func New(seed int64, rules ...Rule) *Plane {
	p := &Plane{rules: make([]rule, len(rules)), seed: seed}
	for i := range rules {
		r := rules[i]
		if r.Nth == 0 {
			r.Nth = splitmix64(uint64(seed)+uint64(i)*0x9e3779b97f4a7c15)%seedWindow + 1
		}
		p.rules[i].Rule = r
	}
	return p
}

// splitmix64 is the SplitMix64 mixing function: a tiny, well-
// distributed deterministic hash for deriving per-rule counts.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fires reports whether a rule triggers at match count n.
func (r *Rule) fires(n uint64) bool {
	if n < r.Nth {
		return false
	}
	if r.Until > 0 && n > r.Until {
		return false
	}
	if r.Every == 0 {
		return n == r.Nth
	}
	return (n-r.Nth)%r.Every == 0
}

// Probe reports a probe of one site to the plane. It panics or sleeps
// when a matching Panic/Delay rule fires, and returns true when an
// Exhaust rule fires (the caller treats its budget as spent). The IO
// actions (Err, Torn, Corrupt) never fire here — they still advance
// their match counters, but shaping an IO operation needs ProbeIO. A
// nil plane does nothing and returns false.
func (p *Plane) Probe(site Site, label string) bool {
	if p == nil {
		return false
	}
	exhausted := false
	for i := range p.rules {
		r := &p.rules[i]
		if r.Site != site || (r.Label != "" && r.Label != label) {
			continue
		}
		n := r.count.Add(1)
		if !r.Rule.fires(n) {
			continue
		}
		switch r.Action {
		case Panic:
			panic(&Injected{Site: site, Label: label, N: n})
		case Exhaust:
			exhausted = true
		case Delay:
			time.Sleep(r.Sleep)
		}
	}
	return exhausted
}

// IOFault is what an IO probe (ProbeIO) tells its caller to simulate.
type IOFault uint8

const (
	// IONone passes the operation through untouched.
	IONone IOFault = iota
	// IOErr fails the operation as if the filesystem returned an error.
	IOErr
	// IOTorn truncates the payload mid-frame: a write persists only a
	// prefix, a read observes one.
	IOTorn
	// IOCorrupt flips a payload byte after checksumming, so the frame
	// decodes as checksum-mismatched.
	IOCorrupt
)

// ProbeIO reports an IO probe — a disk cache read or write — to the
// plane and returns the fault the caller must simulate. Delay rules
// sleep in place; Err/Torn/Corrupt return the matching IOFault (the
// first firing rule in arming order wins, later matching rules still
// advance their counters). Panic and Exhaust rules armed on an IO site
// degrade to IOErr: the serving plane must never crash or misattribute
// a budget, so the strongest honest translation is a failed operation.
// A nil plane returns IONone.
func (p *Plane) ProbeIO(site Site, label string) IOFault {
	if p == nil {
		return IONone
	}
	fault := IONone
	for i := range p.rules {
		r := &p.rules[i]
		if r.Site != site || (r.Label != "" && r.Label != label) {
			continue
		}
		n := r.count.Add(1)
		if !r.Rule.fires(n) {
			continue
		}
		switch r.Action {
		case Delay:
			time.Sleep(r.Sleep)
		case Torn:
			if fault == IONone {
				fault = IOTorn
			}
		case Corrupt:
			if fault == IONone {
				fault = IOCorrupt
			}
		default: // Err, and Panic/Exhaust degraded to a failed operation
			if fault == IONone {
				fault = IOErr
			}
		}
	}
	return fault
}

// Rules returns a copy of the armed rules with seed-derived counts
// resolved, for reports and tests.
func (p *Plane) Rules() []Rule {
	if p == nil {
		return nil
	}
	out := make([]Rule, len(p.rules))
	for i := range p.rules {
		out[i] = p.rules[i].Rule
	}
	return out
}

// ParseSpec builds a plane from a textual fault specification: rules
// separated by ';', each a comma-separated list of key=value fields:
//
//	site=pass|solver|portfolio|cache-read|cache-write  (required)
//	label=NAME                   (optional; pass/variant name or cache key)
//	action=panic|exhaust|delay|err|torn|corrupt                  (required)
//	nth=N                        (optional; 0 derives from seed)
//	every=N, until=N             (optional window, see Rule)
//	sleep=DURATION               (delay action)
//
// The err/torn/corrupt actions shape IO sites (cache-read,
// cache-write); compile sites ignore them.
//
// and an optional leading "seed=N" rule-position sets the seed, e.g.
//
//	seed=7;site=pass,label=place,action=panic,nth=1
func ParseSpec(spec string) (*Plane, error) {
	var seed int64
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if v, ok := strings.CutPrefix(part, "seed="); ok && !strings.Contains(part, ",") {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", v, err)
			}
			seed = n
			continue
		}
		var r Rule
		haveSite, haveAction := false, false
		for _, field := range strings.Split(part, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: field %q is not key=value", field)
			}
			switch key {
			case "site":
				s, ok := SiteByName(val)
				if !ok {
					return nil, fmt.Errorf("faultinject: unknown site %q", val)
				}
				r.Site, haveSite = s, true
			case "label":
				r.Label = val
			case "action":
				a, ok := ActionByName(val)
				if !ok {
					return nil, fmt.Errorf("faultinject: unknown action %q", val)
				}
				r.Action, haveAction = a, true
			case "nth", "every", "until":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("faultinject: bad %s %q: %v", key, val, err)
				}
				switch key {
				case "nth":
					r.Nth = n
				case "every":
					r.Every = n
				case "until":
					r.Until = n
				}
			case "sleep":
				d, err := time.ParseDuration(val)
				if err != nil {
					return nil, fmt.Errorf("faultinject: bad sleep %q: %v", val, err)
				}
				r.Sleep = d
			default:
				return nil, fmt.Errorf("faultinject: unknown field %q", key)
			}
		}
		if !haveSite || !haveAction {
			return nil, fmt.Errorf("faultinject: rule %q needs site= and action=", part)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faultinject: spec %q arms no rules", spec)
	}
	return New(seed, rules...), nil
}
