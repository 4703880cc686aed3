package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestRecorderStampsLogicalClock(t *testing.T) {
	rec := NewRecorder()
	rec.Emit(Event{Kind: KindPassBegin, Name: "lower"})
	rec.Emit(Event{Kind: KindOpPlace, Op: 3})
	rec.Emit(Event{Kind: KindPassEnd, Name: "lower", Ok: true})
	evs := rec.Events()
	if len(evs) != 3 || rec.Len() != 3 {
		t.Fatalf("recorded %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
}

func TestKindString(t *testing.T) {
	for k := KindPassBegin; k <= KindSimWriteback; k++ {
		if s := k.String(); s == "" || s == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Errorf("out-of-range kind should be unknown")
	}
}

func TestMultiDropsNilAndFansOut(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing should be nil (tracing disabled)")
	}
	a, b := NewRecorder(), NewRecorder()
	if got := Multi(nil, a); got != Tracer(a) {
		t.Fatal("Multi of one tracer should return it unwrapped")
	}
	m := Multi(a, nil, b)
	m.Emit(Event{Kind: KindRollback, Value: 7, HasValue: true})
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatalf("fan-out reached a=%d b=%d, want 1/1", a.Len(), b.Len())
	}
}

func sampleStream() []Event {
	rec := NewRecorder()
	rec.Emit(Event{Kind: KindPassBegin, Track: "place", Name: "place", II: 2})
	rec.Emit(Event{Kind: KindIIBegin, Track: "interval", II: 2})
	rec.Emit(Event{Kind: KindOpPlace, Track: "alu0", Name: "t0", Op: 0, FU: 1, Cycle: 4})
	rec.Emit(Event{Kind: KindStubWrite, Track: "bus0", Op: 0, Comm: 2, FU: 1, Bus: 0, RF: 1, Port: 0})
	rec.Emit(Event{Kind: KindPermAttempt, Track: "permute", Depth: 1, Comm: 2})
	rec.Emit(Event{Kind: KindPermAccept, Track: "permute", Depth: 1, Comm: 2})
	rec.Emit(Event{Kind: KindRollback, Track: "journal", Value: 12, HasValue: true})
	rec.Emit(Event{Kind: KindIIEnd, Track: "interval", II: 2, Ok: true})
	rec.Emit(Event{Kind: KindPassEnd, Track: "place", Name: "place", II: 2, Ok: true})
	return rec.Events()
}

func TestWriteChromeTraceValidatesAndIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChromeTrace(&a, sampleStream()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, sampleStream()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same stream rendered differently across runs")
	}
	if err := ValidateChromeTrace(a.Bytes()); err != nil {
		t.Fatalf("export fails own schema check: %v", err)
	}
	out := a.String()
	for _, want := range []string{
		`"thread_name"`, `"ph":"M"`, `"ph":"B"`, `"ph":"E"`, `"ph":"i"`,
		`"name":"place"`, `"II=2"`, `"perm-accept"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %s:\n%s", want, out)
		}
	}
}

// TestChromeWriterMatchesWriteChromeTrace pins the streaming exporter
// to the batch one: attached as the tracer, it must write the very
// bytes WriteChromeTrace renders from the same stream once recorded.
func TestChromeWriterMatchesWriteChromeTrace(t *testing.T) {
	var batch, streamed bytes.Buffer
	if err := WriteChromeTrace(&batch, sampleStream()); err != nil {
		t.Fatal(err)
	}
	cw := NewChromeWriter(&streamed)
	for _, ev := range sampleStream() {
		ev.Seq = 0 // the writer stamps its own clock
		cw.Emit(ev)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batch.Bytes(), streamed.Bytes()) {
		t.Fatalf("streamed trace differs from batch export:\n%s\nvs\n%s", streamed.String(), batch.String())
	}
	if err := ValidateChromeTrace(streamed.Bytes()); err != nil {
		t.Fatalf("streamed trace fails schema check: %v", err)
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":       `{"traceEvents":[`,
		"no array":       `{"events":[]}`,
		"nameless":       `{"traceEvents":[{"ph":"i","ts":1,"pid":1,"tid":1}]}`,
		"no phase":       `{"traceEvents":[{"name":"x","ts":1,"pid":1,"tid":1}]}`,
		"no pid":         `{"traceEvents":[{"name":"x","ph":"i","ts":1,"tid":1}]}`,
		"bad phase":      `{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1,"tid":1}]}`,
		"no ts":          `{"traceEvents":[{"name":"x","ph":"i","pid":1,"tid":1}]}`,
		"time reversal":  `{"traceEvents":[{"name":"x","ph":"i","ts":2,"pid":1,"tid":1},{"name":"y","ph":"i","ts":1,"pid":1,"tid":1}]}`,
		"stray end":      `{"traceEvents":[{"name":"x","ph":"E","ts":1,"pid":1,"tid":1}]}`,
		"unclosed begin": `{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":1,"tid":1}]}`,
	}
	for name, doc := range cases {
		if err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validator accepted malformed trace", name)
		}
	}
	ok := `{"traceEvents":[{"name":"t","ph":"M","pid":1,"tid":1},{"name":"x","ph":"B","ts":1,"pid":1,"tid":1},{"name":"x","ph":"E","ts":2,"pid":1,"tid":1}]}`
	if err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Errorf("validator rejected well-formed trace: %v", err)
	}
}
