package daemon

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
)

// Key is the content-addressed schedule-cache key: the hex sha256 of
//
//	lowered IR × machine fingerprint × canonical scheduling config.
//
// The three sections are length-framed so no concatenation of one can
// masquerade as another. The IR section is the kernel's canonical dump
// (operations, operands, blocks, source lines); the machine section is
// FormatText, whose ParseText round-trip reconstructs the same stub
// tables; the config section is canonicalConfig below.
//
// Two requests collide on a key iff the compiler would make identical
// decisions for both — which is exactly when serving one's cached
// response for the other is sound.
func Key(k *ir.Kernel, m *machine.Machine, opts core.Options, portfolio bool) string {
	h := sha256.New()
	for _, section := range []string{k.Dump(), m.FormatText(), canonicalConfig(opts, portfolio)} {
		fmt.Fprintf(h, "%d\n", len(section))
		io.WriteString(h, section)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprintHex is the hex sha256 of the schedule's canonical
// fingerprint — the compact bit-identity witness served in responses.
func fingerprintHex(s *core.Schedule) string {
	sum := sha256.Sum256([]byte(s.Fingerprint()))
	return hex.EncodeToString(sum[:])
}

// canonicalConfig renders every schedule-affecting configuration field
// in a fixed order with statically defaulted zero fields resolved
// (Options.Canonical), so the encoding — and therefore the cache key —
// is insensitive to how a request spelled its options: field order
// cannot matter (the fields are emitted here, not echoed from the
// request) and a zero value hashes identically to its spelled-out
// default. The passive fields (Tracer) and the test-only fault plane
// are excluded: they never change the schedule. The degradation ladder
// and the portfolio switch are included: both can change which schedule
// wins.
func canonicalConfig(opts core.Options, portfolio bool) string {
	o := opts.Canonical()
	order := "priority"
	if o.CycleOrder {
		order = "cycle"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "order=%s preassign=%t cost=%t regaware=%t\n",
		order, o.TwoPhase, !o.NoCostHeuristic, o.RegisterAware)
	fmt.Fprintf(&b, "maxii=%d perm=%d cand=%d scan=%d attempt=%d\n",
		o.MaxII, o.PermBudget, o.MaxCandidates, o.ScanWindow, o.AttemptBudget)
	fmt.Fprintf(&b, "portfolio=%t\n", portfolio)
	if o.Degrade != nil {
		for _, r := range o.Degrade.Rungs {
			fmt.Fprintf(&b, "rung name=%s maxii=%d boost=%d perm=%d attempt=%d scan=%d",
				r.Name, r.MaxII, r.MaxIIBoost, r.PermBudget, r.AttemptBudget, r.ScanWindow)
			if r.Greedy {
				b.WriteString(" order=cycle preassign=false cost=false regaware=false")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
