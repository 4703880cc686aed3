package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tinySource is a minimal kasm kernel that schedules in microseconds on
// every catalog machine.
const tinySource = `kernel tiny {
  stream out @ 512;
  loop i = 0 .. 8 {
    out[i] = i * 3;
  }
}
`

// mustNew builds a Server from cfg, failing the test on config errors.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newTestServer starts an httptest server around a daemon built from
// cfg and registers cleanup: drain, then close.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	return s, ts
}

// postCompile marshals req and POSTs it, returning the response status,
// headers, and body.
func postCompile(t *testing.T, ts *httptest.Server, req any) (int, http.Header, []byte) {
	t.Helper()
	var body []byte
	switch v := req.(type) {
	case string:
		body = []byte(v)
	default:
		var err error
		body, err = json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/compile", "application/json", bytes.NewReader(body))
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

// get fetches a path, returning status and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// decodeError unmarshals an error body, failing the test on mismatch
// between the embedded status and the transport status.
func decodeError(t *testing.T, status int, body []byte) ErrorDetail {
	t.Helper()
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not the ErrorBody shape: %v\n%s", err, body)
	}
	if eb.Error.Status != status {
		t.Errorf("body status %d != transport status %d", eb.Error.Status, status)
	}
	if eb.Error.Kind == "" || eb.Error.Reason == "" {
		t.Errorf("error body missing kind/reason: %+v", eb.Error)
	}
	return eb.Error
}

func TestHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if status, body := get(t, ts, "/healthz"); status != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz: %d %q", status, body)
	}
	s.Drain(context.Background())
	if status, _ := get(t, ts, "/healthz"); status != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", status)
	}
	// Compile requests are refused during drain with the error shape.
	status, _, body := postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("compile while draining: %d, want 503", status)
	}
	if d := decodeError(t, status, body); d.Kind != "draining" {
		t.Errorf("drain error kind %q", d.Kind)
	}
	// Status and metrics keep serving during drain (the shutdown path
	// scrapes a final snapshot).
	if status, _ := get(t, ts, "/v1/status"); status != http.StatusOK {
		t.Errorf("status while draining: %d", status)
	}
	if status, _ := get(t, ts, "/metrics"); status != http.StatusOK {
		t.Errorf("metrics while draining: %d", status)
	}
}

func TestCompileNamedKernelAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, hdr, body := postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	if status != http.StatusOK {
		t.Fatalf("compile: %d\n%s", status, body)
	}
	if got := hdr.Get("X-Cschedd-Cache"); got != "miss" {
		t.Errorf("cold compile cache header %q, want miss", got)
	}
	var resp CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.II != 1 || resp.Kernel != "fig4" || resp.Machine != "fig5" {
		t.Errorf("unexpected summary: %+v", resp)
	}
	if len(resp.Key) != 64 || len(resp.Fingerprint) != 64 {
		t.Errorf("key/fingerprint not hex sha256: %q %q", resp.Key, resp.Fingerprint)
	}
	if !strings.Contains(resp.Schedule, "schedule fig4 on fig5") {
		t.Errorf("schedule dump missing banner:\n%s", resp.Schedule)
	}
	if len(resp.Passes) == 0 || resp.Utilization == nil || len(resp.Utilization.Resources) == 0 {
		t.Error("response missing passes/utilization")
	}

	status2, hdr2, body2 := postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	if status2 != http.StatusOK || hdr2.Get("X-Cschedd-Cache") != "hit" {
		t.Fatalf("second compile: %d cache=%q", status2, hdr2.Get("X-Cschedd-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Error("cache hit body differs from the cold compile body")
	}
}

func TestCompileSourceKernel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := postCompile(t, ts, CompileRequest{Source: tinySource, Machine: "central"})
	if status != http.StatusOK {
		t.Fatalf("compile: %d\n%s", status, body)
	}
	var resp CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Kernel != "tiny" || resp.II < 1 {
		t.Errorf("unexpected summary: %+v", resp)
	}
}

func TestCompilePortfolio(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	status, _, body := postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5", Portfolio: true})
	if status != http.StatusOK {
		t.Fatalf("portfolio compile: %d\n%s", status, body)
	}
	var resp CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	// The portfolio switch is part of the cache key: the sequential
	// compile of the same inputs must not collide with it.
	status2, _, body2 := postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	if status2 != http.StatusOK {
		t.Fatalf("sequential compile: %d", status2)
	}
	var resp2 CompileResponse
	if err := json.Unmarshal(body2, &resp2); err != nil {
		t.Fatal(err)
	}
	if resp.Key == resp2.Key {
		t.Error("portfolio and sequential requests share a cache key")
	}

	// Two cold compiles of one portfolio key serve byte-identical
	// bodies, pass counters included.
	req := CompileRequest{Kernel: "DCT", Machine: "distributed", Portfolio: true}
	var bodies [2][]byte
	for i := range bodies {
		_, fresh := newTestServer(t, Config{Workers: 2})
		status, hdr, body := postCompile(t, fresh, req)
		if status != http.StatusOK || hdr.Get(CacheStateHeader) != "miss" {
			t.Fatalf("cold portfolio compile %d: %d cache=%q\n%s", i, status, hdr.Get(CacheStateHeader), body)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Errorf("cold portfolio bodies differ:\n%s\n%s", bodies[0], bodies[1])
	}
}

// TestCompileErrorShapes walks every 4xx/5xx error shape of the compile
// endpoint.
func TestCompileErrorShapes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name       string
		req        any
		wantStatus int
		wantKind   string
	}{
		{"malformed JSON", `{"kernel": `, http.StatusBadRequest, "bad-request"},
		{"unknown field", `{"kernle": "fig4"}`, http.StatusBadRequest, "bad-request"},
		{"removed option", `{"kernel":"fig4","machine":"fig5","options":{"speculate":8}}`, http.StatusBadRequest, "bad-request"},
		{"no kernel", CompileRequest{Machine: "fig5"}, http.StatusBadRequest, "bad-request"},
		{"kernel and source", CompileRequest{Kernel: "fig4", Source: tinySource}, http.StatusBadRequest, "bad-request"},
		{"unknown kernel", CompileRequest{Kernel: "NoSuchKernel"}, http.StatusBadRequest, "invalid-input"},
		{"bad source", CompileRequest{Source: "kernel oops {"}, http.StatusBadRequest, "invalid-input"},
		{"unknown machine", CompileRequest{Kernel: "fig4", Machine: "hexagonal"}, http.StatusBadRequest, "invalid-input"},
		{"machine and machine_text", CompileRequest{Kernel: "fig4", Machine: "fig5", MachineText: "machine m"}, http.StatusBadRequest, "bad-request"},
		{"bad machine_text", CompileRequest{Kernel: "fig4", MachineText: "not a machine"}, http.StatusBadRequest, "invalid-input"},
		{"negative option", CompileRequest{Kernel: "fig4", Machine: "fig5", Options: &OptionsSpec{MaxII: -1}}, http.StatusBadRequest, "invalid-input"},
		{"candidate cap below floor", CompileRequest{Kernel: "fig4", Machine: "distributed", Options: &OptionsSpec{MaxCandidates: 1}}, http.StatusBadRequest, "invalid-input"},
		{"schedule failure", CompileRequest{Kernel: "fig4", Machine: "fig5", Options: &OptionsSpec{AttemptBudget: 1}}, http.StatusUnprocessableEntity, "schedule"},
		{"deadline exceeded", CompileRequest{Kernel: "FIR-FP", Machine: "distributed", TimeoutMS: 1}, http.StatusGatewayTimeout, "deadline-exceeded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, _, body := postCompile(t, ts, tc.req)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d\n%s", status, tc.wantStatus, body)
			}
			d := decodeError(t, status, body)
			if d.Kind != tc.wantKind {
				t.Errorf("kind %q, want %q (reason: %s)", d.Kind, tc.wantKind, d.Reason)
			}
			// The shared mapping holds on every compile failure: the
			// HTTP status corresponds to the CLI exit code class.
			if tc.wantKind == "schedule" && ExitCodeForStatus(status) != 1 {
				t.Errorf("exit mapping for %d: %d", status, ExitCodeForStatus(status))
			}
			if tc.wantKind == "deadline-exceeded" && ExitCodeForStatus(status) != ExitCancelled {
				t.Errorf("exit mapping for %d: %d", status, ExitCodeForStatus(status))
			}
		})
	}
	// A schedule failure carries the failing pass and machine identity.
	status, _, body := postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5", Options: &OptionsSpec{AttemptBudget: 1}})
	d := decodeError(t, status, body)
	if d.Pass == "" || d.Kernel != "fig4" || d.Machine != "fig5" {
		t.Errorf("schedule failure not localized: %+v", d)
	}
	// A removed option is an unknown field, and the reason names it.
	status, _, body = postCompile(t, ts, `{"kernel":"fig4","machine":"fig5","options":{"speculate":8}}`)
	if d := decodeError(t, status, body); !strings.Contains(d.Reason, `"speculate"`) {
		t.Errorf("removed option not named: %q", d.Reason)
	}
}

func TestRouteAndMethodErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, body := get(t, ts, "/v1/compile"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile: %d\n%s", status, body)
	} else {
		decodeError(t, status, body)
	}
	if status, body := get(t, ts, "/v1/nope"); status != http.StatusNotFound {
		t.Errorf("GET /v1/nope: %d", status)
	} else {
		decodeError(t, status, body)
	}
}

func TestStatusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 5})
	postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	status, body := get(t, ts, "/v1/status")
	if status != http.StatusOK {
		t.Fatalf("status: %d", status)
	}
	var st StatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 || st.QueueDepth != 5 {
		t.Errorf("pool shape: %+v", st)
	}
	if st.Requests != 2 || st.Compilations != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("counters: %+v", st)
	}
	if st.CacheEntries != 1 || st.CacheBytes <= 0 || st.CacheBudget <= 0 {
		t.Errorf("cache stats: %+v", st)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	status, body := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE cschedd_requests_total counter",
		"cschedd_requests_total 1",
		"cschedd_compilations_total 1",
		"cschedd_cache_entries 1",
		"# TYPE cschedd_compile_seconds histogram",
		"cschedd_compile_seconds_count 1",
		"# TYPE cschedd_memo_hits_total counter",
		"cschedd_memo_hits_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDegradedResponse pins that a ladder win is reported in the body
// and that degraded and primary results have distinct cache keys only
// when their configurations differ (the ladder is part of the key).
func TestDegradedResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := CompileRequest{
		Kernel: "fig4", Machine: "fig5",
		Options: &OptionsSpec{AttemptBudget: 1},
		Degrade: true,
	}
	status, _, body := postCompile(t, ts, req)
	if status != http.StatusOK {
		t.Fatalf("degraded compile: %d\n%s", status, body)
	}
	var resp CompileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded != "fast-search" {
		t.Errorf("degraded rung %q, want fast-search", resp.Degraded)
	}
	// Identical request without the ladder fails instead — and must not
	// have been served from the degraded entry.
	status2, _, body2 := postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5", Options: &OptionsSpec{AttemptBudget: 1}})
	if status2 != http.StatusUnprocessableEntity {
		t.Errorf("ladderless request: %d\n%s", status2, body2)
	}
}

// TestServerDefaultTimeout pins that the config-level default deadline
// applies when the request names none.
func TestServerDefaultTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultTimeout: time.Nanosecond})
	status, _, body := postCompile(t, ts, CompileRequest{Kernel: "fig4", Machine: "fig5"})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("default-timeout compile: %d\n%s", status, body)
	}
	if d := decodeError(t, status, body); d.Kind != "deadline-exceeded" {
		t.Errorf("kind %q", d.Kind)
	}
}
