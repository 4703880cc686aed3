package core

import (
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/obs"
)

// This file holds every emit site of the obs event layer: nil-guarded
// helper methods so that with tracing disabled (Options.Tracer nil) the
// cost is one pointer compare per decision point and no Event is ever
// constructed — TestDisabledTracerAllocatesNothing pins the
// zero-allocation property through these same helpers. Tracing is
// passive: no helper reads back tracer state, so enabling a tracer
// cannot perturb a scheduling decision (the differential goldens pin
// that too).

// stage runs body as one run of the named pipeline stage: a push/pop
// on the compilation's clock (self time, runs, and a failure when body
// reports false) bracketed by pass-begin/pass-end events on the
// stage's own track. runPass, closeComm and insertCopies all run
// through it, so the clock and the trace cover the same intervals.
func stage(clk *obs.Clock, t obs.Tracer, name string, ii int, body func() bool) bool {
	clk.Push(name)
	if t != nil {
		t.Emit(obs.Event{Kind: obs.KindPassBegin, Track: name, Name: name, II: int32(ii)})
	}
	ok := body()
	if t != nil {
		t.Emit(obs.Event{Kind: obs.KindPassEnd, Track: name, Name: name, II: int32(ii), Ok: ok})
	}
	clk.Pop(ok)
	return ok
}

// traceIIBegin/traceIIEnd bracket one initiation-interval attempt on
// the "interval" track.
func (e *engine) traceIIBegin() {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(obs.Event{Kind: obs.KindIIBegin, Track: "interval", II: int32(e.ii)})
}

func (e *engine) traceIIEnd(ok bool) {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(obs.Event{Kind: obs.KindIIEnd, Track: "interval", II: int32(e.ii), Ok: ok})
}

// traceOpPlace records a tentative operation placement on the unit's
// own track (one track per contended functional unit).
func (e *engine) traceOpPlace(id ir.OpID, fu machine.FUID, cycle int) {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(obs.Event{
		Kind: obs.KindOpPlace, Track: e.mach.FU(fu).Name, Name: e.ops[id].Name,
		Op: int32(id), FU: int32(fu), Cycle: int32(cycle), II: int32(e.ii),
	})
}

// traceCommW records a write-stub choice on the bus's track, preceded
// by a comm-open event when this is the communication's first stub
// (the Fig. 14 "communication opens" transition).
func (e *engine) traceCommW(c *comm, stub machine.WriteStub, pinned, wasOpen bool) {
	if e.tracer == nil {
		return
	}
	if !wasOpen {
		e.tracer.Emit(obs.Event{
			Kind: obs.KindCommOpen, Track: "comms",
			Comm: int32(c.id), Op: int32(c.def),
		})
	}
	e.tracer.Emit(obs.Event{
		Kind: obs.KindStubWrite, Track: e.mach.Buses[stub.Bus].Name,
		Comm: int32(c.id), Op: int32(c.def), Final: pinned,
		FU: int32(stub.FU), Bus: int32(stub.Bus), Port: int32(stub.Port), RF: int32(stub.RF),
	})
}

// traceStubRead records a read-stub choice for an operand on the bus's
// track.
func (e *engine) traceStubRead(key OperandKey, stub machine.ReadStub, pinned bool) {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(obs.Event{
		Kind: obs.KindStubRead, Track: e.mach.Buses[stub.Bus].Name,
		Op: int32(key.Op), Slot: int32(key.Slot), Final: pinned,
		RF: int32(stub.RF), Port: int32(stub.Port), Bus: int32(stub.Bus), FU: int32(stub.FU),
	})
}

// traceCommState records close and split transitions (dormant→open is
// covered by traceCommW's comm-open).
func (e *engine) traceCommState(c *comm, s commState) {
	if e.tracer == nil {
		return
	}
	var kind obs.Kind
	switch s {
	case commClosed:
		kind = obs.KindCommClose
	case commSplit:
		kind = obs.KindCommSplit
	default:
		return
	}
	e.tracer.Emit(obs.Event{
		Kind: kind, Track: "comms", Comm: int32(c.id), Op: int32(c.use),
	})
}

// tracePerm records one §4.4 stub-permutation search step on the
// "permute" track. The hot dfs loops call this through a hoisted
// traced flag, so the disabled path stays out of the loop body.
func (e *engine) tracePerm(kind obs.Kind, depth int, item int32) {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(obs.Event{
		Kind: kind, Track: "permute", Depth: int32(depth), Comm: item, II: int32(e.ii),
	})
}

// tracePermMemo records one §4.4 solve short-circuited by the
// infeasibility memo, on the "permute" track alongside the search
// steps the hit replaced.
func (e *engine) tracePermMemo() {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(obs.Event{
		Kind: obs.KindPermMemo, Track: "permute", II: int32(e.ii),
		Value: int64(e.stats.MemoHits), HasValue: true,
	})
}

// traceCopy records one copy operation materialized to bridge a route,
// with the splitting recursion depth.
func (e *engine) traceCopy(c *comm, copyID ir.OpID) {
	if e.tracer == nil {
		return
	}
	e.tracer.Emit(obs.Event{
		Kind: obs.KindCopyInsert, Track: "copies",
		Comm: int32(c.id), Op: int32(copyID), Depth: int32(e.depth),
	})
}

// traceRollback records a journal rollback of n entries; empty
// rollbacks are not events.
func (e *engine) traceRollback(n int) {
	if e.tracer == nil || n == 0 {
		return
	}
	e.tracer.Emit(obs.Event{
		Kind: obs.KindRollback, Track: "journal",
		Value: int64(n), HasValue: true,
	})
}

// traceCancel records a cooperative cancellation observed at an
// initiation interval, on the "interval" track.
func (c *Compilation) traceCancel(ii int) {
	if c.Opts.Tracer == nil {
		return
	}
	c.Opts.Tracer.Emit(obs.Event{Kind: obs.KindCancel, Track: "interval", II: int32(ii)})
}

// traceRecover records a panic recovered by the pass pipeline on the
// failing pass's own track.
func (c *Compilation) traceRecover(pass string) {
	if c.Opts.Tracer == nil {
		return
	}
	c.Opts.Tracer.Emit(obs.Event{Kind: obs.KindRecover, Track: pass, Name: pass, II: int32(c.II)})
}

// traceDegrade records one degradation-ladder rung being applied after
// a schedule failure, on the "degrade" track.
func traceDegrade(t obs.Tracer, rung string) {
	if t == nil {
		return
	}
	t.Emit(obs.Event{Kind: obs.KindDegrade, Track: "degrade", Name: rung})
}
