package core

import (
	"testing"

	"repro/internal/depgraph"
	"repro/internal/ir"
	"repro/internal/machine"
)

// TestSeparateCommsPerOperand checks §3: "one operation could use the
// result as multiple operands, then a separate communication exists
// for each such read operand" — squaring a value produces two
// communications, one per operand slot.
func TestSeparateCommsPerOperand(t *testing.T) {
	b := ir.NewBuilder("square")
	b.Loop()
	iv, _ := b.InductionVar("i", 0, 1)
	x := b.Emit(ir.Load, "x", iv, b.Const(0))
	sq := b.Emit(ir.Mul, "sq", b.Val(x), b.Val(x))
	b.Emit(ir.Store, "", b.Val(sq), iv, b.Const(64))
	k := b.MustFinish()

	m := machine.Distributed()
	g := depgraph.Build(k, m)
	e := newEngine(k, m, g, Options{}, 4)
	mulID := k.Loop[2]
	n := 0
	slots := map[int]bool{}
	for _, cid := range e.commsTo[mulID] {
		c := e.comms[cid]
		if c.state != commSplit && c.value == x {
			n++
			slots[c.slot] = true
		}
	}
	if n != 2 || !slots[0] || !slots[1] {
		t.Fatalf("x->mul communications = %d (slots %v), want one per operand", n, slots)
	}
}
