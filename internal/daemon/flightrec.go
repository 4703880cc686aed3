package daemon

import (
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the daemon's flight recorder: a fixed-size ring of
// recent request records — key, stages, status, cache disposition —
// plus full obs.Recorder trace capture for the requests worth a deep
// look (errors and latency outliers), exposed as GET /debug/requests
// and GET /debug/requests/{id}. The ring answers "what just happened";
// a captured trace answers "what did the compiler decide, event by
// event" through the same Chrome-trace exporter and schema the csched
// CLI uses.

// durationMS renders a duration as fractional milliseconds for logs
// and records.
func durationMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// flightRecorder is the bounded store behind /debug/requests. A nil
// recorder is the disabled state: record and capture no-op, lookups
// miss.
type flightRecorder struct {
	mu      sync.Mutex
	seq     uint64
	ring    []RequestRecord // circular, len == cap once warm
	next    int             // ring slot the next record lands in
	entries int

	// traces holds the captured full traces by (leader) request ID,
	// evicted FIFO once traceKeep deep: traces of hard kernels run to
	// millions of events, so only a handful stay resident.
	traces     map[string]*obs.Recorder
	traceOrder []string
	traceKeep  int
}

// newFlightRecorder sizes a recorder; entries <= 0 disables it (nil).
func newFlightRecorder(entries, traceKeep int) *flightRecorder {
	if entries <= 0 {
		return nil
	}
	if traceKeep <= 0 {
		traceKeep = 8
	}
	return &flightRecorder{
		ring:      make([]RequestRecord, 0, entries),
		entries:   entries,
		traces:    make(map[string]*obs.Recorder),
		traceKeep: traceKeep,
	}
}

// record appends one finished request to the ring, evicting the oldest
// record (and its captured trace, if any) once full.
func (fr *flightRecorder) record(rm *reqMeta, total time.Duration) {
	if fr == nil {
		return
	}
	spans := rm.tl.Spans()
	rec := RequestRecord{
		ID:         rm.id,
		LeaderID:   rm.leaderID,
		Kernel:     rm.kernel,
		Machine:    rm.machine,
		Key:        rm.key,
		Status:     rm.status,
		Cache:      rm.cache,
		ErrorKind:  rm.errKind,
		Start:      rm.tl.Origin().UTC().Format(time.RFC3339Nano),
		DurationMS: durationMS(total),
		MemoHits:   rm.memoHits,
		Trace:      rm.traced,
	}
	if len(spans) > 0 {
		rec.Stages = make([]StageSpan, len(spans))
		for i, sp := range spans {
			rec.Stages[i] = StageSpan{
				Name:       sp.Name,
				StartMS:    durationMS(sp.Start),
				DurationMS: durationMS(sp.Duration()),
			}
		}
	}

	fr.mu.Lock()
	fr.seq++
	rec.Seq = fr.seq
	if len(fr.ring) < fr.entries {
		fr.ring = append(fr.ring, rec)
	} else {
		if old := &fr.ring[fr.next]; old.Trace {
			fr.dropTrace(old.ID)
		}
		fr.ring[fr.next] = rec
	}
	fr.next = (fr.next + 1) % fr.entries
	fr.mu.Unlock()
}

// capture retains the full event trace of one backing compilation under
// the leader's request ID, evicting the oldest capture beyond the keep
// budget.
func (fr *flightRecorder) capture(id string, rec *obs.Recorder) {
	if fr == nil || rec == nil {
		return
	}
	fr.mu.Lock()
	if _, dup := fr.traces[id]; !dup {
		fr.traces[id] = rec
		fr.traceOrder = append(fr.traceOrder, id)
		for len(fr.traceOrder) > fr.traceKeep {
			delete(fr.traces, fr.traceOrder[0])
			fr.traceOrder = fr.traceOrder[1:]
		}
	}
	fr.mu.Unlock()
}

// dropTrace removes a capture evicted with its ring record. Caller
// holds fr.mu.
func (fr *flightRecorder) dropTrace(id string) {
	if _, ok := fr.traces[id]; !ok {
		return
	}
	delete(fr.traces, id)
	for i, tid := range fr.traceOrder {
		if tid == id {
			fr.traceOrder = append(fr.traceOrder[:i], fr.traceOrder[i+1:]...)
			break
		}
	}
}

// records returns the ring newest-first.
func (fr *flightRecorder) records() []RequestRecord {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]RequestRecord, 0, len(fr.ring))
	for i := 0; i < len(fr.ring); i++ {
		// Newest is the slot before next, walking backwards.
		idx := fr.next - 1 - i
		for idx < 0 {
			idx += len(fr.ring)
		}
		out = append(out, fr.ring[idx%len(fr.ring)])
	}
	return out
}

// trace resolves a request ID to its captured trace: directly for a
// leader, through the recorded leader ID for a follower that collapsed
// onto it.
func (fr *flightRecorder) trace(id string) *obs.Recorder {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if rec, ok := fr.traces[id]; ok {
		return rec
	}
	for i := range fr.ring {
		if fr.ring[i].ID == id && fr.ring[i].LeaderID != "" {
			return fr.traces[fr.ring[i].LeaderID]
		}
	}
	return nil
}

// handleDebugRequests serves the flight-recorder ring as JSON, newest
// first.
func (s *Server) handleDebugRequests(w http.ResponseWriter) {
	if s.recorder == nil {
		s.jsonError(w, http.StatusNotFound, "recorder-disabled",
			"the flight recorder is disabled (RecorderEntries < 0)")
		return
	}
	writeJSON(w, http.StatusOK, RequestsResponse{Requests: s.recorder.records()}, "")
}

// handleDebugTrace serves the captured Chrome trace for one request ID
// (the path suffix after /debug/requests/).
func (s *Server) handleDebugTrace(w http.ResponseWriter, path string) {
	id := strings.TrimPrefix(path, "/debug/requests/")
	if s.recorder == nil {
		s.jsonError(w, http.StatusNotFound, "recorder-disabled",
			"the flight recorder is disabled (RecorderEntries < 0)")
		return
	}
	rec := s.recorder.trace(id)
	if rec == nil {
		s.jsonError(w, http.StatusNotFound, "no-trace",
			"no captured trace for request "+id+" (only errored or slow requests are captured; see -trace-slow / -trace-errors)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	obs.WriteChromeTrace(w, rec.Events())
}
