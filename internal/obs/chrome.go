package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file exports recorded event streams in the Chrome trace-event
// JSON format (the "JSON Array Format" with a traceEvents wrapper),
// loadable in Perfetto or chrome://tracing. Tracks map to thread
// lanes: one lane per pipeline pass plus one per contended resource
// (bus, unit), named through thread_name metadata events. Timestamps
// are the logical clock, not wall time — one microsecond per event —
// so exports of a deterministic compilation are byte-identical across
// runs.
//
// The writer builds each record by hand into a reused buffer instead
// of going through encoding/json: a traced compilation of a hard
// kernel exports millions of records, and per-record Marshal (plus an
// args map per record) dominates the export wall time.

// phase maps an event kind onto its trace-event phase: duration
// begin/end for the bracketing kinds, instant for the rest.
func (k Kind) phase() byte {
	switch k {
	case KindPassBegin, KindIIBegin:
		return 'B'
	case KindPassEnd, KindIIEnd:
		return 'E'
	default:
		return 'i'
	}
}

// displayName renders the trace-event name for one event.
func displayName(ev Event) string {
	switch ev.Kind {
	case KindPassBegin, KindPassEnd:
		return ev.Name
	case KindIIBegin, KindIIEnd:
		return "II=" + strconv.Itoa(int(ev.II))
	case KindVariantBegin, KindVariantWin:
		return ev.Kind.String() + " " + ev.Name
	case KindOpPlace, KindSimIssue:
		if ev.Name != "" {
			return ev.Kind.String() + " " + ev.Name
		}
	}
	return ev.Kind.String()
}

// appendString appends s as a JSON string. The fast path covers the
// plain-ASCII names the compiler produces; anything needing escapes
// falls back to encoding/json.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			esc, _ := json.Marshal(s)
			return append(b, esc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// argAppender accumulates the ,"args":{...} suffix of one record.
type argAppender struct {
	b     []byte
	first bool
}

func (a *argAppender) key(k string) {
	if a.first {
		a.b = append(a.b, `,"args":{`...)
		a.first = false
	} else {
		a.b = append(a.b, ',')
	}
	a.b = append(a.b, '"')
	a.b = append(a.b, k...)
	a.b = append(a.b, `":`...)
}

func (a *argAppender) num(k string, v int64) {
	a.key(k)
	a.b = strconv.AppendInt(a.b, v, 10)
}

func (a *argAppender) boolean(k string, v bool) {
	a.key(k)
	a.b = strconv.AppendBool(a.b, v)
}

func (a *argAppender) str(k, v string) {
	a.key(k)
	a.b = appendString(a.b, v)
}

func (a *argAppender) close() []byte {
	if !a.first {
		a.b = append(a.b, '}')
	}
	return a.b
}

// appendArgs appends the identifier fields meaningful for the kind as
// the record's args object (nothing when the kind carries none). Keys
// are written in a fixed per-kind order, keeping the output canonical.
func appendArgs(b []byte, ev Event) []byte {
	a := argAppender{b: b, first: true}
	switch ev.Kind {
	case KindPassBegin, KindIIBegin:
		a.num("ii", int64(ev.II))
	case KindPassEnd, KindIIEnd:
		a.num("ii", int64(ev.II))
		a.boolean("ok", ev.Ok)
	case KindOpPlace:
		a.num("op", int64(ev.Op))
		a.num("fu", int64(ev.FU))
		a.num("cycle", int64(ev.Cycle))
	case KindCommOpen, KindCommClose, KindCommSplit:
		a.num("comm", int64(ev.Comm))
		a.num("op", int64(ev.Op))
	case KindStubWrite:
		a.num("comm", int64(ev.Comm))
		a.num("op", int64(ev.Op))
		a.num("fu", int64(ev.FU))
		a.num("bus", int64(ev.Bus))
		a.num("rf", int64(ev.RF))
		a.num("port", int64(ev.Port))
		a.boolean("final", ev.Final)
	case KindStubRead:
		a.num("op", int64(ev.Op))
		a.num("slot", int64(ev.Slot))
		a.num("rf", int64(ev.RF))
		a.num("port", int64(ev.Port))
		a.num("bus", int64(ev.Bus))
		a.num("fu", int64(ev.FU))
		a.boolean("final", ev.Final)
	case KindPermAttempt, KindPermReject, KindPermAccept:
		a.num("depth", int64(ev.Depth))
		a.num("item", int64(ev.Comm))
	case KindCopyInsert:
		a.num("comm", int64(ev.Comm))
		a.num("depth", int64(ev.Depth))
		a.num("op", int64(ev.Op))
	case KindRollback:
		a.num("undone", ev.Value)
	case KindVariantBegin, KindVariantWin:
		a.str("variant", ev.Name)
		a.num("ii", int64(ev.II))
	case KindSimIssue:
		a.num("op", int64(ev.Op))
		a.num("cycle", int64(ev.Cycle))
		a.num("iter", int64(ev.Iter))
		a.num("fu", int64(ev.FU))
		if ev.HasValue {
			a.num("result", ev.Value)
		}
	case KindSimWriteback:
		a.num("op", int64(ev.Op))
		a.num("cycle", int64(ev.Cycle))
		a.num("iter", int64(ev.Iter))
		a.num("rf", int64(ev.RF))
		a.num("bus", int64(ev.Bus))
		a.num("value", ev.Value)
	}
	return a.close()
}

// WriteChromeTrace renders an event stream as Chrome trace-event JSON.
// Events are written in slice order with ts = Seq; tracks are assigned
// thread ids in first-appearance order and named by a thread_name
// metadata record written just ahead of each track's first event, so
// equal streams produce byte-identical output. The bytes are exactly
// what a ChromeWriter attached as the compilation's tracer streams out.
func WriteChromeTrace(w io.Writer, events []Event) error {
	cw := newChromeWriter(w)
	for i := range events {
		cw.write(&events[i])
	}
	return cw.Close()
}

// ChromeWriter is a Tracer that exports Chrome trace-event JSON as the
// events arrive instead of keeping them: it stamps the logical clock
// as a Recorder does and encodes each event straight into w, so memory
// stays bounded however long the stream runs. A traced compilation of
// a hard kernel emits millions of events; recording them first costs
// gigabytes. The output is byte-identical to WriteChromeTrace over the
// same stream recorded by a Recorder. Emit is safe for concurrent use;
// Close writes the trailer and reports the first write error.
type ChromeWriter struct {
	mu    sync.Mutex
	seq   uint64
	bw    *bufio.Writer
	tids  map[string]int
	buf   []byte
	first bool
	err   error
}

// NewChromeWriter starts a trace on w. Call Close once the traced work
// is done.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	return newChromeWriter(w)
}

func newChromeWriter(w io.Writer) *ChromeWriter {
	cw := &ChromeWriter{
		bw:    bufio.NewWriterSize(w, 1<<16),
		tids:  make(map[string]int),
		buf:   make([]byte, 0, 256),
		first: true,
	}
	_, cw.err = cw.bw.WriteString("{\"traceEvents\":[\n")
	return cw
}

// Emit stamps one event and writes it out.
func (cw *ChromeWriter) Emit(ev Event) {
	cw.mu.Lock()
	cw.seq++
	ev.Seq = cw.seq
	cw.write(&ev)
	cw.mu.Unlock()
}

// Len is the number of events emitted so far.
func (cw *ChromeWriter) Len() int {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return int(cw.seq)
}

// Close ends the traceEvents array and flushes. It does not close the
// underlying writer.
func (cw *ChromeWriter) Close() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.err == nil {
		_, cw.err = cw.bw.WriteString("\n]}\n")
	}
	if cw.err == nil {
		cw.err = cw.bw.Flush()
	}
	return cw.err
}

// record opens the next record in buf, comma-separated from the last.
func (cw *ChromeWriter) record() {
	cw.buf = cw.buf[:0]
	if !cw.first {
		cw.buf = append(cw.buf, ",\n"...)
	}
	cw.first = false
}

// tidOf returns the track's thread id, naming a new track with its
// thread_name metadata record first.
func (cw *ChromeWriter) tidOf(track string) int {
	if track == "" {
		track = "events"
	}
	id, ok := cw.tids[track]
	if ok {
		return id
	}
	id = len(cw.tids) + 1
	cw.tids[track] = id
	cw.record()
	cw.buf = append(cw.buf, `{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":`...)
	cw.buf = strconv.AppendInt(cw.buf, int64(id), 10)
	cw.buf = append(cw.buf, `,"args":{"name":`...)
	cw.buf = appendString(cw.buf, track)
	cw.buf = append(cw.buf, "}}"...)
	if cw.err == nil {
		_, cw.err = cw.bw.Write(cw.buf)
	}
	return id
}

// write encodes one event, keeping its Seq as the timestamp.
func (cw *ChromeWriter) write(ev *Event) {
	if cw.err != nil {
		return
	}
	tid := cw.tidOf(ev.Track)
	if cw.err != nil {
		return
	}
	ph := ev.Kind.phase()
	cw.record()
	b := cw.buf
	b = append(b, `{"name":`...)
	b = appendString(b, displayName(*ev))
	b = append(b, `,"ph":"`...)
	b = append(b, ph)
	b = append(b, `","ts":`...)
	b = strconv.AppendUint(b, ev.Seq, 10)
	b = append(b, `,"pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if ph == 'i' {
		b = append(b, `,"s":"t"`...)
	}
	b = appendArgs(b, *ev)
	b = append(b, '}')
	cw.buf = b
	_, cw.err = cw.bw.Write(b)
}

// ValidateChromeTrace checks data against the trace-event schema: a
// traceEvents array whose records carry name/ph/pid/tid (plus ts on
// non-metadata records), with phases drawn from the B/E/i/M set,
// duration events balanced per track, and timestamps non-decreasing.
// CI runs it over the trace csched emits for the motivating kernel.
func ValidateChromeTrace(data []byte) error {
	return ValidateChromeTraceReader(bytes.NewReader(data))
}

// ValidateChromeTraceReader is ValidateChromeTrace over a stream.
// Records are decoded one at a time, so multi-hundred-megabyte traces
// validate without materializing the whole document — it can sit on
// the far end of an io.Pipe fed by WriteChromeTrace.
func ValidateChromeTraceReader(r io.Reader) error {
	dec := json.NewDecoder(r)
	if err := expectDelim(dec, '{'); err != nil {
		return fmt.Errorf("obs: trace is not a JSON object: %w", err)
	}
	sawEvents := false
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("obs: trace is not valid JSON: %w", err)
		}
		key, _ := keyTok.(string)
		if key != "traceEvents" {
			// Skip other top-level members (displayTimeUnit, ...).
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return fmt.Errorf("obs: trace is not valid JSON: %w", err)
			}
			continue
		}
		sawEvents = true
		if err := validateEventArray(dec); err != nil {
			return err
		}
	}
	if !sawEvents {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	return nil
}

func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("got %v, want %v", tok, want)
	}
	return nil
}

func validateEventArray(dec *json.Decoder) error {
	if err := expectDelim(dec, '['); err != nil {
		return fmt.Errorf("obs: traceEvents is not an array: %w", err)
	}
	depth := make(map[int]int)
	lastTs := -1.0
	for i := 0; dec.More(); i++ {
		var ev struct {
			Name *string  `json:"name"`
			Ph   *string  `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		}
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("obs: event %d is not valid JSON: %w", i, err)
		}
		switch {
		case ev.Name == nil || *ev.Name == "":
			return fmt.Errorf("obs: event %d has no name", i)
		case ev.Ph == nil:
			return fmt.Errorf("obs: event %d (%s) has no ph", i, *ev.Name)
		case ev.Pid == nil || ev.Tid == nil:
			return fmt.Errorf("obs: event %d (%s) has no pid/tid", i, *ev.Name)
		}
		switch *ev.Ph {
		case "M":
			continue // metadata carries no meaningful timestamp
		case "B", "E", "i":
		default:
			return fmt.Errorf("obs: event %d (%s) has unsupported phase %q", i, *ev.Name, *ev.Ph)
		}
		if ev.Ts == nil {
			return fmt.Errorf("obs: event %d (%s) has no ts", i, *ev.Name)
		}
		if *ev.Ts < lastTs {
			return fmt.Errorf("obs: event %d (%s) goes back in time (%v < %v)", i, *ev.Name, *ev.Ts, lastTs)
		}
		lastTs = *ev.Ts
		switch *ev.Ph {
		case "B":
			depth[*ev.Tid]++
		case "E":
			if depth[*ev.Tid]--; depth[*ev.Tid] < 0 {
				return fmt.Errorf("obs: event %d (%s) ends a span that never began on tid %d", i, *ev.Name, *ev.Tid)
			}
		}
	}
	if err := expectDelim(dec, ']'); err != nil {
		return fmt.Errorf("obs: traceEvents array truncated: %w", err)
	}
	for tid, d := range depth {
		if d != 0 {
			return fmt.Errorf("obs: tid %d has %d unclosed spans", tid, d)
		}
	}
	return nil
}
