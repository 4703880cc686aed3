package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	commsched "repro"
	"repro/internal/daemon"
)

// TestExitCodeTable pins the error mapping csched shares with the
// daemon (internal/daemon/errmap.go): every CompileError kind maps to
// one documented exit code AND one HTTP status, and the status maps
// back to the same exit code — so a script driving compiles through
// either surface classifies failures identically.
func TestExitCodeTable(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		exit   int
		status int
	}{
		{"invalid-input", &commsched.CompileError{Kind: commsched.ErrInvalidInput}, 1, 400},
		{"schedule", &commsched.CompileError{Kind: commsched.ErrSchedule}, 1, 422},
		{"cancelled", &commsched.CompileError{Kind: commsched.ErrCancelled}, 3, 499},
		{"deadline-exceeded", &commsched.CompileError{Kind: commsched.ErrDeadlineExceeded}, 3, 504},
		{"internal", &commsched.CompileError{Kind: commsched.ErrInternal}, 4, 500},
		{"wrapped internal", fmt.Errorf("outer: %w", &commsched.CompileError{Kind: commsched.ErrInternal}), 4, 500},
		{"plain error", errors.New("not a compile error"), 1, 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := exitCode(tc.err); got != tc.exit {
				t.Errorf("exitCode = %d, want %d", got, tc.exit)
			}
			if got := daemon.ExitCode(tc.err); got != tc.exit {
				t.Errorf("daemon.ExitCode = %d, want %d", got, tc.exit)
			}
			if got := daemon.HTTPStatus(tc.err); got != tc.status {
				t.Errorf("daemon.HTTPStatus = %d, want %d", got, tc.status)
			}
		})
	}

	// The HTTP → exit bridge: 499 and 504 are exit 3, 500 is exit 4,
	// success is 0, every other failure status is exit 1.
	for status, exit := range map[int]int{
		200: 0, 400: 1, 422: 1, 429: 1, 499: 3, 503: 1, 504: 3, 500: 4,
	} {
		if got := daemon.ExitCodeForStatus(status); got != exit {
			t.Errorf("ExitCodeForStatus(%d) = %d, want %d", status, got, exit)
		}
	}
}

// runCLI drives run() with captured output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return runCLIContext(t, context.Background(), args...)
}

// runCLIContext is runCLI under a caller-controlled context.
func runCLIContext(t *testing.T, ctx context.Context, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(ctx, args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestListExitsZero(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	if !strings.Contains(out, "DCT") {
		t.Fatalf("-list output missing kernels:\n%s", out)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},                                    // no kernel at all
		{"-arch", "nonexistent"},              // unknown architecture
		{"-kernel", "NoSuchKernel"},           // unknown kernel
		{"-kernel", "DCT", "-badfl"},          // unknown flag
		{"-kernel", "DCT", "-speculate", "8"}, // removed flag
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("args %v exited %d, want 2", args, code)
		}
	}
}

func TestCompileSuccessWithPasses(t *testing.T) {
	src := `kernel tiny {
  stream out @ 512;
  loop i = 0 .. 8 {
    out[i] = i * 3;
  }
}
`
	path := filepath.Join(t.TempDir(), "tiny.kasm")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errw := runCLI(t, "-arch", "central", "-passes", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw)
	}
	for _, want := range []string{
		"II=", "pipeline: prioritize(priority)",
		"lower", "prioritize", "place", "regalloc", "verify",
		"intervals tried", "backtracks",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestCompileFailureStructuredDiagnostic pins the satellite contract:
// a failing compilation exits non-zero and reports kernel, machine,
// pass, and reason as a structured diagnostic, with the kernel source
// line of the failing operation when one is known.
func TestCompileFailureStructuredDiagnostic(t *testing.T) {
	// A multiply has no unit on the fig5 machine (adders and a
	// load/store unit only), so the lower pass rejects the kernel.
	src := `kernel nomul {
  stream a @ 0;
  stream out @ 512;
  loop i = 0 .. 8 {
    out[i] = a[i] * 3;
  }
}
`
	path := filepath.Join(t.TempDir(), "nomul.kasm")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errw := runCLI(t, "-arch", "fig5", path)
	if code == 0 {
		t.Fatal("compilation unexpectedly succeeded")
	}
	for _, want := range []string{
		"compilation failed",
		"kernel:  nomul",
		"machine: fig5",
		"pass:    lower",
		"reason:  no unit",
		"op:      3",
		"line:    5",
	} {
		if !strings.Contains(errw, want) {
			t.Errorf("stderr missing %q:\n%s", want, errw)
		}
	}
}

// TestTraceFlagWritesValidJSON pins the -trace flag: the exported file
// is schema-valid Chrome trace-event JSON and is byte-identical across
// runs.
func TestTraceFlagWritesValidJSON(t *testing.T) {
	dir := t.TempDir()
	export := func(name string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		code, out, errw := runCLI(t,
			"-arch", "distributed", "-kernel", "FIR-INT", "-dump=false", "-sim", "-trace", path)
		if code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, errw)
		}
		if !strings.Contains(out, "wrote") || !strings.Contains(out, "trace events") {
			t.Errorf("stdout missing trace confirmation:\n%s", out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := export("a.json")
	if err := commsched.ValidateChromeTrace(a); err != nil {
		t.Fatalf("-trace output fails schema validation: %v", err)
	}
	// The stream covers both compilation and simulation events.
	for _, want := range []string{"perm-attempt", "sim-issue", "sim-writeback"} {
		if !strings.Contains(string(a), want) {
			t.Errorf("trace missing %q events", want)
		}
	}
	if b := export("b.json"); !bytes.Equal(a, b) {
		t.Error("trace differs across identical runs")
	}
}

// TestFig4KernelCompiles pins the -kernel fig4 shortcut: the §2
// motivating example schedules on the fig5 machine without a source
// file.
func TestFig4KernelCompiles(t *testing.T) {
	code, out, errw := runCLI(t, "-arch", "fig5", "-kernel", "fig4", "-dump=false")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw)
	}
	if !strings.Contains(out, "kernel fig4 on fig5") {
		t.Errorf("stdout missing fig4 header:\n%s", out)
	}
}

// TestUtilFlag pins the -util heatmap output.
func TestUtilFlag(t *testing.T) {
	code, out, errw := runCLI(t, "-arch", "distributed", "-kernel", "FIR-INT", "-dump=false", "-util")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw)
	}
	for _, want := range []string{"utilization fir_int on distributed", "fu", "bus", "read-port", "write-port"} {
		if !strings.Contains(out, want) {
			t.Errorf("-util output missing %q:\n%s", want, out)
		}
	}
}

// TestStatsJSONFlag pins -stats-json: parseable JSON on stdout with
// the schedule, scheduler, pass, and utilization sections populated.
func TestStatsJSONFlag(t *testing.T) {
	code, out, errw := runCLI(t, "-arch", "distributed", "-kernel", "FIR-INT", "-dump=false", "-stats-json", "-")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw)
	}
	start := strings.Index(out, "{")
	if start < 0 {
		t.Fatalf("no JSON on stdout:\n%s", out)
	}
	var stats struct {
		Kernel      string `json:"kernel"`
		Machine     string `json:"machine"`
		II          int    `json:"ii"`
		Scheduler   struct{ Attempts int }
		Passes      []struct{ Name string }
		Utilization struct {
			Resources []struct {
				Kind string `json:"kind"`
			} `json:"resources"`
		} `json:"utilization"`
	}
	if err := json.Unmarshal([]byte(out[start:]), &stats); err != nil {
		t.Fatalf("stats not parseable: %v\n%s", err, out[start:])
	}
	if stats.Kernel != "fir_int" || stats.Machine != "distributed" || stats.II <= 0 {
		t.Errorf("stats header wrong: %+v", stats)
	}
	if stats.Scheduler.Attempts == 0 || len(stats.Passes) == 0 || len(stats.Utilization.Resources) == 0 {
		t.Errorf("stats sections empty: %+v", stats)
	}
}

// TestProfileFlags pins -cpuprofile/-memprofile: both files exist and
// carry the gzip magic of the pprof proto encoding.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, _, errw := runCLI(t, "-arch", "central", "-kernel", "DCT", "-dump=false",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw)
	}
	for _, path := range []string{cpu, mem} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s is not a gzipped pprof profile (%d bytes)", path, len(data))
		}
	}
}

// TestCancelledContextExitsThree pins the cancellation exit path: a
// pre-cancelled context makes compilation unwind cooperatively and
// report a structured cancelled error with exit code 3.
func TestCancelledContextExitsThree(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, _, errw := runCLIContext(t, ctx, "-arch", "distributed", "-kernel", "DCT", "-dump=false")
	if code != daemon.ExitCancelled {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, daemon.ExitCancelled, errw)
	}
	for _, want := range []string{"compilation failed", "kind:    cancelled"} {
		if !strings.Contains(errw, want) {
			t.Errorf("stderr missing %q:\n%s", want, errw)
		}
	}
}

// TestTimeoutExitsThree pins the -timeout flag: an unmeetable deadline
// reports a structured deadline-exceeded error with exit code 3.
func TestTimeoutExitsThree(t *testing.T) {
	code, _, errw := runCLI(t, "-arch", "distributed", "-kernel", "DCT", "-dump=false", "-timeout", "1ns")
	if code != daemon.ExitCancelled {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, daemon.ExitCancelled, errw)
	}
	for _, want := range []string{"compilation failed", "kind:    deadline-exceeded"} {
		if !strings.Contains(errw, want) {
			t.Errorf("stderr missing %q:\n%s", want, errw)
		}
	}
}

// TestInjectedPanicExitsFour pins the internal-error exit path: a
// fault-plane panic in the place pass is recovered into a structured
// internal error — pass name, reason, stackless rendering — with exit
// code 4, never a process crash.
func TestInjectedPanicExitsFour(t *testing.T) {
	code, _, errw := runCLI(t, "-arch", "distributed", "-kernel", "FIR-INT", "-dump=false",
		"-faults", "seed=7;site=pass,label=place,action=panic,nth=1")
	if code != daemon.ExitInternal {
		t.Fatalf("exit %d, want %d; stderr:\n%s", code, daemon.ExitInternal, errw)
	}
	for _, want := range []string{"compilation failed", "kind:    internal", "pass:    place", "injected panic"} {
		if !strings.Contains(errw, want) {
			t.Errorf("stderr missing %q:\n%s", want, errw)
		}
	}
}

// TestBadFaultSpecExitsTwo pins -faults validation as a usage error.
func TestBadFaultSpecExitsTwo(t *testing.T) {
	if code, _, _ := runCLI(t, "-kernel", "DCT", "-faults", "site=bogus,action=panic"); code != 2 {
		t.Fatalf("bad -faults spec exited %d, want 2", code)
	}
}

// TestDegradeFlagWiring pins -degrade on the happy path: arming the
// ladder must not change the outcome of a kernel that schedules fine
// (no "degraded" banner, exit 0). The forced-exhaustion path where a
// fallback rung actually wins is pinned in internal/core's fault
// tests, which can control budgets precisely.
func TestDegradeFlagWiring(t *testing.T) {
	code, out, errw := runCLI(t, "-arch", "distributed", "-kernel", "FIR-INT", "-dump=false", "-degrade")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw)
	}
	if strings.Contains(out, "degraded:") {
		t.Errorf("unexpected degradation banner on a schedulable kernel:\n%s", out)
	}
}

// TestDoesNotScheduleDiagnostic covers the place-pass failure shape:
// an impossibly low interval cap turns into a structured
// does-not-schedule report.
func TestDoesNotScheduleDiagnostic(t *testing.T) {
	code, _, errw := runCLI(t, "-arch", "fig5", "-kernel", "DCT")
	if code == 0 {
		t.Skip("DCT unexpectedly schedules on fig5")
	}
	if !strings.Contains(errw, "compilation failed") || !strings.Contains(errw, "pass:") {
		t.Errorf("stderr not structured:\n%s", errw)
	}
}
