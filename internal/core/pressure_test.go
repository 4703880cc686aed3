package core

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/obs"
)

// pipelineKernel builds a loop whose loaded value x stays live across
// two multiplies, so at a short interval it spans several iterations.
func pipelineKernel(t *testing.T) *ir.Kernel {
	t.Helper()
	b := ir.NewBuilder("pipe")
	iv, _ := b.InductionVar("i", 0, 1)
	b.Loop()
	x := b.Emit(ir.Load, "x", iv, b.Const(0))
	p := b.Emit(ir.Mul, "p", b.Val(x), b.Const(3))
	q := b.Emit(ir.Mul, "q", b.Val(p), b.Const(5))
	r := b.Emit(ir.Add, "r", b.Val(q), b.Val(x))
	b.Emit(ir.Store, "", b.Val(r), iv, b.Const(0))
	return b.MustFinish()
}

func TestResidenceRegs(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  residence
		ii   int
		want int
	}{
		{"loop value, 7 cycles at II 2", residence{write: 3, lastRead: 10, block: ir.LoopBlock}, 2, 4},
		{"loop value, exact multiple", residence{write: 0, lastRead: 6, block: ir.LoopBlock}, 3, 2},
		{"loop value, read at write", residence{write: 5, lastRead: 5, block: ir.LoopBlock}, 4, 1},
		{"loop invariant", residence{write: 0, lastRead: 0, block: ir.PreambleBlock, invariant: true}, 1, 1},
		{"preamble value", residence{write: 0, lastRead: 40, block: ir.PreambleBlock}, 2, 1},
	} {
		if got := tc.res.regs(tc.ii); got != tc.want {
			t.Errorf("%s: regs(%d) = %d, want %d", tc.name, tc.ii, got, tc.want)
		}
	}
	r := newResidence(3, ir.LoopBlock)
	r.noteRead(false, 9)
	r.noteRead(false, 5)
	if r.lastRead != 9 || r.invariant {
		t.Errorf("after reads at 9 and 5: %+v, want lastRead 9", r)
	}
	r.noteRead(true, 100)
	if !r.invariant || r.lastRead != 9 {
		t.Errorf("a cross-block read must mark the invariant only: %+v", r)
	}
}

// TestResidenceSpansIterations checks modulo variable expansion on a
// compiled schedule: a loop value live L cycles occupies ⌈L/II⌉
// registers, worked out here by hand from the schedule's placements.
func TestResidenceSpansIterations(t *testing.T) {
	k := pipelineKernel(t)
	s, err := Compile(k, machine.Central(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := k.Ops[k.Loop[0]].Result
	multi := false
	found := false
	for key, res := range scheduleResidences(s) {
		if key.value != x {
			continue
		}
		found = true
		write, last := -1, -1
		for _, r := range s.Routes {
			if r.Value != x || r.W.RF != key.rf {
				continue
			}
			write = s.Assignments[r.Def].Cycle + s.Machine.Latency(s.Ops[r.Def].Opcode) - 1
			if read := s.Assignments[r.Use].Cycle + r.Distance*s.II; read > last {
				last = read
			}
		}
		want := (last - write + s.II - 1) / s.II
		if got := res.regs(s.II); got != want {
			t.Errorf("x in rf%d: %d registers, want ⌈(%d-%d)/%d⌉ = %d", key.rf, got, last, write, s.II, want)
		}
		if want > 1 {
			multi = true
		}
	}
	if !found {
		t.Fatal("no residence for the loaded value x")
	}
	if s.II == 1 && !multi {
		t.Error("x spans several iterations at II=1 but holds one register")
	}
}

// TestLoopInvariantHoldsOneRegister: a preamble value read by every
// iteration stays allocated for the whole loop in one register.
func TestLoopInvariantHoldsOneRegister(t *testing.T) {
	b := ir.NewBuilder("inv")
	iv, _ := b.InductionVar("i", 0, 1)
	c1 := b.Emit(ir.MovI, "c1", b.Const(7))
	b.Loop()
	x := b.Emit(ir.Load, "x", iv, b.Const(0))
	p := b.Emit(ir.Mul, "p", b.Val(x), b.Val(c1))
	b.Emit(ir.Store, "", b.Val(p), iv, b.Const(0))
	k := b.MustFinish()
	s, err := Compile(k, machine.Distributed(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for key, res := range scheduleResidences(s) {
		if key.value != c1 {
			continue
		}
		found = true
		if !res.invariant {
			t.Errorf("c1 in rf%d not marked invariant: %+v", key.rf, res)
		}
		if got := res.regs(s.II); got != 1 {
			t.Errorf("invariant c1 in rf%d holds %d registers, want 1", key.rf, got)
		}
	}
	if !found {
		t.Error("no residence for the loop constant c1")
	}
}

// TestRegisterAwareDemandMatchesSchedule pins the one register model:
// after a register-aware compile, the running per-file demand the
// winning engine routed against equals the Schedule.RegDemand the
// regalloc pass reports, on every file. The pairs are ones where a
// communication closes on a file its write already reaches, without a
// copy.
func TestRegisterAwareDemandMatchesSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles Sort and Merge")
	}
	for _, name := range []string{"FIR-INT", "Sort", "Merge"} {
		t.Run(name, func(t *testing.T) {
			m := machine.Clustered(4)
			c := &Compilation{
				Kernel: kernels.ByName(name).MustKernel(), Machine: m,
				Opts: Options{RegisterAware: true}, clock: obs.NewClock(),
			}
			if err := c.runPass(lowerPass{}); err != nil {
				t.Fatal(err)
			}
			var agg Stats
			var fail placeFail
			good, _, _, err := runLadder(c, nil, &agg, &fail)
			if err != nil || good == nil {
				t.Fatalf("no schedule: %v", err)
			}
			c.eng, c.II = good, good.ii
			if err := c.runPass(regallocPass{}); err != nil {
				t.Fatal(err)
			}
			for _, rf := range m.RegFiles {
				if run, rep := good.regDemand[rf.ID], c.sched.RegDemand[rf.ID]; run != rep {
					t.Errorf("%s: engine demand %d, Schedule.RegDemand %d", rf.Name, run, rep)
				}
			}
		})
	}
}
