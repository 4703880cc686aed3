package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// This file tests the request-scoped observability plane: request-ID
// propagation, the structured access log across a singleflight
// collapse, the cache-disposition header on error paths, the flight
// recorder, and the byte-determinism guarantees that must survive all
// of it.

// postWithHeaders is postCompile with request headers, returning the
// response status, headers, and body.
func postWithHeaders(t *testing.T, ts *httptest.Server, req any, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hr.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// mintedID matches server-generated request IDs: bootID "-" sequence.
var mintedID = regexp.MustCompile(`^[0-9a-f]{8}-[0-9a-f]{8}$`)

// TestRequestIDHeader pins the ID contract: every compile response
// carries X-Cschedd-Request-Id; well-formed client IDs are honored
// verbatim; hostile ones are replaced with a minted ID.
func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := CompileRequest{Kernel: "fig4", Machine: "fig5"}

	_, hdr, _ := postCompile(t, ts, req)
	if id := hdr.Get(RequestIDHeader); !mintedID.MatchString(id) {
		t.Errorf("minted ID %q does not match bootid-seq shape", id)
	}

	_, hdr, _ = postWithHeaders(t, ts, req, map[string]string{RequestIDHeader: "edge-proxy.42_a"})
	if id := hdr.Get(RequestIDHeader); id != "edge-proxy.42_a" {
		t.Errorf("valid client ID not honored: got %q", id)
	}

	for _, bad := range []string{"has space", "semi;colon", strings.Repeat("x", 129), "ünïcode"} {
		_, hdr, _ = postWithHeaders(t, ts, req, map[string]string{RequestIDHeader: bad})
		if id := hdr.Get(RequestIDHeader); !mintedID.MatchString(id) {
			t.Errorf("invalid client ID %q echoed back as %q, want a minted ID", bad, id)
		}
	}
	// Bytes the HTTP client would refuse to send still must not pass the
	// validator (defense against hand-rolled clients).
	for _, bad := range []string{"", "nul\x00byte", "new\nline"} {
		if validRequestID(bad) {
			t.Errorf("validRequestID(%q) = true", bad)
		}
	}

	// Errored requests carry the ID too — that is when it matters most.
	_, hdr, _ = postCompile(t, ts, CompileRequest{Kernel: "no-such-kernel"})
	if id := hdr.Get(RequestIDHeader); !mintedID.MatchString(id) {
		t.Errorf("error response ID %q, want a minted ID", id)
	}
}

// logLine is the decoded shape of one access-log line.
type logLine struct {
	Msg        string             `json:"msg"`
	Level      string             `json:"level"`
	ID         string             `json:"id"`
	LeaderID   string             `json:"leader_id"`
	Kernel     string             `json:"kernel"`
	Machine    string             `json:"machine"`
	Key        string             `json:"key"`
	Status     int                `json:"status"`
	Cache      string             `json:"cache"`
	ErrorKind  string             `json:"error_kind"`
	DurationMS float64            `json:"duration_ms"`
	Stages     map[string]float64 `json:"stages"`
	Trace      bool               `json:"trace"`
}

// parseLog decodes every access-log line in buf.
func parseLog(t *testing.T, data []byte) []logLine {
	t.Helper()
	var out []logLine
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		var ll logLine
		if err := json.Unmarshal([]byte(line), &ll); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		out = append(out, ll)
	}
	return out
}

// TestAccessLogSingleflightCollapse is the correlation contract: N
// identical concurrent requests collapse onto one backing compilation
// and produce exactly N log lines — one "miss" (the leader) and N-1
// "join" lines whose leader_id names the miss line — so one compile's
// story is reassembled from the log with a single grep. With TraceSlow
// armed, every collapsed request resolves to the leader's trace via
// /debug/requests/{id}.
func TestAccessLogSingleflightCollapse(t *testing.T) {
	// Each place-pass run sleeps, giving followers a wide window to join
	// the leader's flight.
	plane := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SitePass, Label: "place",
		Nth: 1, Every: 1, Action: faultinject.Delay, Sleep: 300 * time.Millisecond,
	})
	var buf syncLogBuffer
	s, ts := newTestServer(t, Config{
		Workers:   2,
		Faults:    plane,
		Logger:    slog.New(slog.NewJSONHandler(&buf, nil)),
		TraceSlow: time.Nanosecond,
	})

	req := CompileRequest{Kernel: "fig4", Machine: "fig5"}
	var wg sync.WaitGroup
	bodies := make([][]byte, 4)
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, _, body := postCompile(t, ts, req)
		if status != http.StatusOK {
			t.Errorf("leader: %d\n%s", status, body)
		}
		bodies[0] = body
	}()
	waitFor(t, 2*time.Second, func() bool { return s.gInflight.Value() == 1 })
	for i := 1; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, _, body := postCompile(t, ts, req)
			if status != http.StatusOK {
				t.Errorf("follower %d: %d\n%s", i, status, body)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < 4; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("follower %d body differs from the leader's", i)
		}
	}

	lines := parseLog(t, buf.Bytes())
	if len(lines) != 4 {
		t.Fatalf("%d access-log lines, want exactly 4:\n%s", len(lines), buf.Bytes())
	}
	var leader logLine
	var joins []logLine
	for _, ll := range lines {
		if ll.Msg != "request" {
			t.Fatalf("unexpected log message %q", ll.Msg)
		}
		switch ll.Cache {
		case "miss":
			leader = ll
		case "join":
			joins = append(joins, ll)
		default:
			t.Errorf("unexpected cache disposition %q", ll.Cache)
		}
	}
	if leader.ID == "" || len(joins) != 3 {
		t.Fatalf("want 1 miss + 3 joins, got leader %+v joins %d", leader, len(joins))
	}
	if leader.Kernel != "fig4" || leader.Machine != "fig5" || len(leader.Key) != 64 ||
		leader.Status != 200 || leader.DurationMS <= 0 || !leader.Trace {
		t.Errorf("leader line %+v", leader)
	}
	if _, ok := leader.Stages[stageCompile]; !ok {
		t.Errorf("leader stages missing %q: %v", stageCompile, leader.Stages)
	}
	for _, j := range joins {
		if j.LeaderID != leader.ID {
			t.Errorf("join %s leader_id %q, want %q", j.ID, j.LeaderID, leader.ID)
		}
		if j.Key != leader.Key || j.Status != 200 {
			t.Errorf("join line %+v", j)
		}
		if _, ok := j.Stages[stageSFWait]; !ok {
			t.Errorf("join stages missing %q: %v", stageSFWait, j.Stages)
		}
		// A follower's ID resolves to the leader's captured trace.
		status, body := get(t, ts, "/debug/requests/"+j.ID)
		if status != http.StatusOK || !bytes.Contains(body, []byte("traceEvents")) {
			t.Errorf("follower trace lookup %s: %d %.80s", j.ID, status, body)
		}
	}

	// A repeat is a memory hit. Stages are self times on the request's
	// clock, so on every disposition they sum to no more than the
	// request's duration.
	if status, _, body := postCompile(t, ts, req); status != http.StatusOK {
		t.Fatalf("hit: %d\n%s", status, body)
	}
	// The log line is written after the response, so wait for it.
	waitFor(t, 2*time.Second, func() bool { return bytes.Count(buf.Bytes(), []byte("\n")) == 5 })
	lines = parseLog(t, buf.Bytes())
	hit := lines[len(lines)-1]
	if hit.Cache != "hit" {
		t.Fatalf("repeat logged cache %q, want hit", hit.Cache)
	}
	for _, ll := range []logLine{hit, leader, joins[0]} {
		sum := 0.0
		for _, ms := range ll.Stages {
			sum += ms
		}
		// 1 ns of slack absorbs float rounding of the millisecond values.
		if sum > ll.DurationMS+1e-6 {
			t.Errorf("%s line: stages sum to %v ms, more than its %v ms duration: %v", ll.Cache, sum, ll.DurationMS, ll.Stages)
		}
	}
}

// syncLogBuffer is a bytes.Buffer safe for concurrent handler writes.
type syncLogBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncLogBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncLogBuffer) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.b.Bytes()...)
}

// TestCacheHeaderOnErrorPaths pins the fixed error-path header
// semantics: a leader whose backing compilation fails reports "miss",
// and a follower that gives up waiting reports "join" — previously both
// dropped the header entirely.
func TestCacheHeaderOnErrorPaths(t *testing.T) {
	t.Run("leader failure is a miss", func(t *testing.T) {
		plane := faultinject.New(1, faultinject.Rule{
			Site: faultinject.SiteSolver, Nth: 1, Every: 1, Action: faultinject.Exhaust,
		})
		_, ts := newTestServer(t, Config{Faults: plane})
		status, hdr, body := postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5"})
		if status != http.StatusUnprocessableEntity {
			t.Fatalf("exhausted compile: %d\n%s", status, body)
		}
		if got := hdr.Get(CacheStateHeader); got != "miss" {
			t.Errorf("failed leader %s = %q, want miss", CacheStateHeader, got)
		}
	})

	t.Run("abandoned follower is a join", func(t *testing.T) {
		plane := faultinject.New(1, faultinject.Rule{
			Site: faultinject.SitePass, Label: "place",
			Nth: 1, Every: 1, Action: faultinject.Delay, Sleep: 300 * time.Millisecond,
		})
		s, ts := newTestServer(t, Config{Faults: plane})
		req := CompileRequest{Kernel: "fig4", Machine: "fig5"}
		done := make(chan struct{})
		go func() {
			defer close(done)
			postCompile(t, ts, req)
		}()
		waitFor(t, 2*time.Second, func() bool { return s.gInflight.Value() == 1 })

		// The follower joins the slow flight, then its own deadline
		// expires long before the leader publishes.
		body, _ := json.Marshal(req)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/compile", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", "application/json")
		resp, err := ts.Client().Do(hr)
		if err == nil {
			// The server may win the race and write the 504 before the
			// transport drops; both shapes are acceptable.
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("abandoned follower: %d", resp.StatusCode)
			}
			if got := resp.Header.Get(CacheStateHeader); got != "join" {
				t.Errorf("abandoned follower %s = %q, want join", CacheStateHeader, got)
			}
		}
		<-done
	})
}

// TestDebugRequestsRing exercises the flight-recorder ring: records are
// newest-first, carry the request identity and stage times, and the
// disabled state 404s.
func TestDebugRequestsRing(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	status, _, _ := postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	if status != http.StatusOK {
		t.Fatalf("compile: %d", status)
	}
	status, hdr, _ := postCompile(t, ts, CompileRequest{Kernel: "no-such-kernel"})
	if status != http.StatusBadRequest {
		t.Fatalf("bad compile: %d", status)
	}
	badID := hdr.Get(RequestIDHeader)

	status, body := get(t, ts, "/debug/requests")
	if status != http.StatusOK {
		t.Fatalf("/debug/requests: %d\n%s", status, body)
	}
	var rr RequestsResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Requests) != 2 {
		t.Fatalf("%d records, want 2", len(rr.Requests))
	}
	newest, older := rr.Requests[0], rr.Requests[1]
	if newest.ID != badID || newest.Status != 400 || newest.ErrorKind != "invalid-input" {
		t.Errorf("newest record %+v, want the 400 for %s", newest, badID)
	}
	if newest.Seq <= older.Seq {
		t.Errorf("records not newest-first: seq %d then %d", newest.Seq, older.Seq)
	}
	if older.Status != 200 || older.Cache != "miss" || older.Kernel != "fig4" ||
		len(older.Key) != 64 || older.DurationMS <= 0 {
		t.Errorf("compile record %+v", older)
	}
	var stages []string
	for _, sp := range older.Stages {
		stages = append(stages, sp.Name)
	}
	for _, want := range []string{stageResolve, stageCacheProbe, stageCompile, stageSerialize} {
		found := false
		for _, got := range stages {
			found = found || got == want
		}
		if !found {
			t.Errorf("compile record stages %v missing %q", stages, want)
		}
	}

	// Ring eviction: a 3-entry recorder holds only the last 3.
	s2, ts2 := newTestServer(t, Config{RecorderEntries: 3})
	for i := 0; i < 5; i++ {
		postCompile(t, ts2, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	}
	if recs := s2.recorder.records(); len(recs) != 3 || recs[0].Seq != 5 || recs[2].Seq != 3 {
		t.Errorf("ring after 5 requests: %d records, seqs %v", len(recs),
			[]uint64{recs[0].Seq, recs[1].Seq, recs[2].Seq})
	}

	// Disabled recorder: both debug endpoints 404.
	_, ts3 := newTestServer(t, Config{RecorderEntries: -1})
	if status, _ := get(t, ts3, "/debug/requests"); status != http.StatusNotFound {
		t.Errorf("disabled recorder list: %d, want 404", status)
	}
	if status, _ := get(t, ts3, "/debug/requests/xyz"); status != http.StatusNotFound {
		t.Errorf("disabled recorder trace: %d, want 404", status)
	}
}

// TestDebugTraceCapture pins automatic trace capture: with TraceSlow
// armed at a threshold every compile crosses, the request's trace is
// served as schema-valid Chrome trace JSON; untraced and unknown IDs
// 404 with the no-trace kind.
func TestDebugTraceCapture(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSlow: time.Nanosecond})

	status, hdr, _ := postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	if status != http.StatusOK {
		t.Fatalf("compile: %d", status)
	}
	id := hdr.Get(RequestIDHeader)

	status, trace := get(t, ts, "/debug/requests/"+id)
	if status != http.StatusOK {
		t.Fatalf("/debug/requests/%s: %d\n%s", id, status, trace)
	}
	if err := obs.ValidateChromeTrace(trace); err != nil {
		t.Errorf("captured trace fails schema validation: %v", err)
	}

	// A cache hit runs no backing compilation and captures nothing new;
	// its own ID has no trace.
	status, hdr, _ = postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	if status != http.StatusOK || hdr.Get(CacheStateHeader) != "hit" {
		t.Fatalf("second compile: %d %s", status, hdr.Get(CacheStateHeader))
	}
	status, body := get(t, ts, "/debug/requests/"+hdr.Get(RequestIDHeader))
	if status != http.StatusNotFound {
		t.Errorf("cache-hit trace: %d, want 404\n%s", status, body)
	}
	if d := decodeError(t, http.StatusNotFound, body); d.Kind != "no-trace" {
		t.Errorf("cache-hit trace kind %q, want no-trace", d.Kind)
	}

	// TraceErrors captures failing compilations.
	plane := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SiteSolver, Nth: 1, Every: 1, Action: faultinject.Exhaust,
	})
	_, ts2 := newTestServer(t, Config{TraceErrors: true, Faults: plane})
	status, hdr, _ = postCompile(t, ts2, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("exhausted compile: %d", status)
	}
	status, trace = get(t, ts2, "/debug/requests/"+hdr.Get(RequestIDHeader))
	if status != http.StatusOK {
		t.Fatalf("errored-compile trace: %d", status)
	}
	if err := obs.ValidateChromeTrace(trace); err != nil {
		t.Errorf("errored-compile trace fails schema validation: %v", err)
	}
}

// TestTraceKeepEviction pins the FIFO cap on resident traces: captures
// beyond TraceKeep evict the oldest.
func TestTraceKeepEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceSlow: time.Nanosecond, TraceKeep: 2})
	machines := []string{"fig5", "central", "distributed"}
	ids := make([]string, len(machines))
	for i, m := range machines {
		status, hdr, body := postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: m})
		if status != http.StatusOK {
			t.Fatalf("compile on %s: %d\n%s", m, status, body)
		}
		ids[i] = hdr.Get(RequestIDHeader)
	}
	if s.recorder.trace(ids[0]) != nil {
		t.Error("oldest trace survived past the keep budget")
	}
	for _, id := range ids[1:] {
		if s.recorder.trace(id) == nil {
			t.Errorf("trace %s evicted within the keep budget", id)
		}
	}
}

// TestObservabilityByteIdentity is the determinism gate for the whole
// plane: with logging, the flight recorder, and trace capture all
// armed, compile response bodies are byte-identical to a bare server's
// — and a traced miss is byte-identical to the hit that follows it.
func TestObservabilityByteIdentity(t *testing.T) {
	var buf syncLogBuffer
	_, bare := newTestServer(t, Config{RecorderEntries: -1})
	_, armed := newTestServer(t, Config{
		Logger:      slog.New(slog.NewJSONHandler(&buf, nil)),
		TraceSlow:   time.Nanosecond,
		TraceErrors: true,
	})

	for _, req := range []CompileRequest{
		{Kernel: "fig4", Machine: "fig5"},
		{Kernel: "DCT", Machine: "clustered4"},
		{Kernel: "no-such-kernel"},
	} {
		s1, _, b1 := postCompile(t, bare, req)
		s2, _, b2 := postCompile(t, armed, req)
		if s1 != s2 || !bytes.Equal(b1, b2) {
			t.Errorf("%+v: bare (%d) and armed (%d) bodies differ:\n%s\n%s", req, s1, s2, b1, b2)
		}
		s3, hdr, b3 := postCompile(t, armed, req)
		if s3 != s2 || !bytes.Equal(b2, b3) {
			t.Errorf("%+v: miss and replay bodies differ", req)
		}
		if s3 == http.StatusOK && hdr.Get(CacheStateHeader) != "hit" {
			t.Errorf("%+v: replay not served from cache (%s)", req, hdr.Get(CacheStateHeader))
		}
	}

	// The request ID must never leak into a body.
	if lines := parseLog(t, buf.Bytes()); len(lines) == 0 {
		t.Error("armed server logged nothing")
	} else {
		for _, ll := range lines {
			_, _, body := postCompile(t, armed, CompileRequest{Kernel: "fig4", Machine: "fig5"})
			if ll.ID != "" && bytes.Contains(body, []byte(ll.ID)) {
				t.Errorf("request ID %s leaked into a response body", ll.ID)
			}
		}
	}
}
