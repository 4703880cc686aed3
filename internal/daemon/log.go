package daemon

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"

	"repro/internal/obs"
)

// This file is the request-identity and structured-logging side of the
// daemon: every compile request carries an ID that lives in the
// X-Cschedd-Request-Id header and the JSON access log — never in a
// response body, which stays byte-deterministic — and is threaded
// through the singleflight layer so one backing compilation's log lines
// correlate across every request collapsed onto it.

// RequestIDHeader carries the request ID on compile responses. A
// client may supply its own (valid IDs are honored verbatim, so an edge
// proxy's ID survives end to end); otherwise the server mints one.
const RequestIDHeader = "X-Cschedd-Request-Id"

// CacheStateHeader reports the schedule-cache disposition of a compile
// request: hit (in-memory), disk (served from the persistent tier after
// a memory miss), miss, or join (collapsed onto another request's
// in-flight compilation). The header is emitted on error outcomes too —
// a failed join and a failed miss are different operational situations.
const CacheStateHeader = "X-Cschedd-Cache"

// newBootID mints the per-process prefix of generated request IDs, so
// IDs from different daemon instances cannot collide in shared logs.
func newBootID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed
		// prefix only weakens cross-instance uniqueness, not correctness.
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// validRequestID accepts client-supplied IDs that are safe to echo into
// headers and logs: 1–128 bytes of [A-Za-z0-9._-].
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// requestID returns the ID for one compile request: the client's own
// X-Cschedd-Request-Id when it is well-formed, else a freshly minted
// bootID-seq pair.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get(RequestIDHeader); validRequestID(id) {
		return id
	}
	return fmt.Sprintf("%s-%08x", s.bootID, s.reqSeq.Add(1))
}

// reqMeta accumulates everything one compile request contributes to the
// observability plane: identity, the stage timeline, and the outcome
// fields the access log and the flight recorder share. It lives on the
// handler's stack and is only ever touched by the request's own
// goroutine.
type reqMeta struct {
	id       string
	leaderID string // set on followers: the flight leader's request ID
	kernel   string
	machine  string
	key      string
	status   int
	cache    string // hit / disk / miss / join; empty before a key exists
	errKind  string
	memoHits int
	traced   bool // full trace captured into the flight recorder
	tl       *obs.Timeline
}

// finishRequest closes out one compile request: per-stage and
// end-to-end latency observations, the flight-recorder ring record, and
// exactly one structured access-log line. Called deferred from
// handleCompile, after the response bytes are on the wire.
func (s *Server) finishRequest(rm *reqMeta) {
	total := rm.tl.Elapsed()
	s.hRequest.Observe(total.Seconds())
	spans := rm.tl.Spans()
	for _, sp := range spans {
		if h, ok := s.hStages[sp.Name]; ok {
			h.Observe(sp.Duration().Seconds())
		}
	}

	s.recorder.record(rm, total)

	if s.logger == nil {
		return
	}
	level := slog.LevelInfo
	switch {
	case rm.status >= 500:
		level = slog.LevelError
	case rm.status >= 400:
		level = slog.LevelWarn
	}
	attrs := make([]slog.Attr, 0, 16)
	attrs = append(attrs, slog.String("id", rm.id))
	if rm.leaderID != "" {
		attrs = append(attrs, slog.String("leader_id", rm.leaderID))
	}
	if rm.kernel != "" {
		attrs = append(attrs, slog.String("kernel", rm.kernel))
	}
	if rm.machine != "" {
		attrs = append(attrs, slog.String("machine", rm.machine))
	}
	if rm.key != "" {
		attrs = append(attrs, slog.String("key", rm.key))
	}
	attrs = append(attrs, slog.Int("status", rm.status))
	if rm.cache != "" {
		attrs = append(attrs, slog.String("cache", rm.cache))
	}
	if rm.errKind != "" {
		attrs = append(attrs, slog.String("error_kind", rm.errKind))
	}
	attrs = append(attrs, slog.Float64("duration_ms", durationMS(total)))
	if len(spans) > 0 {
		stages := make([]any, 0, len(spans))
		for _, sp := range spans {
			stages = append(stages, slog.Float64(sp.Name, durationMS(sp.Duration())))
		}
		attrs = append(attrs, slog.Group("stages", stages...))
	}
	if rm.memoHits > 0 {
		attrs = append(attrs, slog.Int("memo_hits", rm.memoHits))
	}
	if rm.traced {
		attrs = append(attrs, slog.Bool("trace", true))
	}
	s.logger.LogAttrs(s.baseCtx, level, "request", attrs...)
}
