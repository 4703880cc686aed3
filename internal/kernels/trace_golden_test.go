package kernels

import (
	"crypto/sha256"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

func utilGoldenFile(kernel, mach string) string {
	name := strings.ReplaceAll(strings.ToLower(kernel), " ", "_") + "__" + mach + ".golden"
	return filepath.Join("testdata", "util", name)
}

// TestUtilizationGoldens fingerprints the utilization summary of every
// Table 1 kernel × architecture pair. Together with TestScheduleGoldens
// this pins not just where operations land but how hard each bus and
// port is driven — a resource-allocation regression shows up here even
// when the II does not move.
func TestUtilizationGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping differential goldens in -short mode")
	}
	for _, spec := range All() {
		for _, m := range differentialMachines() {
			spec, m := spec, m
			t.Run(spec.Name+"/"+m.Name, func(t *testing.T) {
				t.Parallel()
				s, err := core.Compile(spec.MustKernel(), m, core.Options{})
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				got := s.InterconnectUtilization().String() + "\n"
				path := utilGoldenFile(spec.Name, m.Name)
				if *updateGoldens {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run go test ./internal/kernels -run TestUtilizationGoldens -update-goldens): %v", err)
				}
				if got != string(want) {
					t.Errorf("utilization diverged from golden %s:\n%s",
						path, fingerprintDiff(string(want), got))
				}
			})
		}
	}
}

// TestTracingDoesNotPerturb is the observability acceptance gate:
// compiling every Table 1 kernel × architecture pair with a tracer
// attached must (a) reproduce the exact schedule the goldens pin, (b)
// export valid Chrome trace-event JSON, and (c) produce byte-identical
// trace output across repeated runs. Traces of the hard pairs run to
// millions of events and hundreds of megabytes, so the test attaches an
// obs.ChromeWriter as the tracer and streams the export into a hash
// (and, on the first run, through the schema validator via a pipe)
// rather than recording the events or buffering the bytes.
func TestTracingDoesNotPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping traced differential sweep in -short mode")
	}
	for _, spec := range All() {
		for _, m := range differentialMachines() {
			spec, m := spec, m
			t.Run(spec.Name+"/"+m.Name, func(t *testing.T) {
				t.Parallel()
				compileTraced := func(validate bool) (string, [sha256.Size]byte) {
					h := sha256.New()
					var sink io.Writer = h
					var pw *io.PipeWriter
					var done chan error
					if validate {
						var pr *io.PipeReader
						pr, pw = io.Pipe()
						done = make(chan error, 1)
						go func() { done <- obs.ValidateChromeTraceReader(pr) }()
						defer pr.Close()
						sink = io.MultiWriter(h, pw)
					}
					cw := obs.NewChromeWriter(sink)
					s, err := core.Compile(spec.MustKernel(), m, core.Options{Tracer: cw})
					if err != nil {
						t.Fatalf("traced compile: %v", err)
					}
					if err := cw.Close(); err != nil {
						t.Fatal(err)
					}
					if validate {
						// EOF the pipe, then collect the validator's verdict.
						pw.Close()
						if err := <-done; err != nil {
							t.Errorf("trace fails schema validation: %v", err)
						}
					}
					var sum [sha256.Size]byte
					h.Sum(sum[:0])
					return s.Fingerprint(), sum
				}
				fp, sum := compileTraced(true)
				want, err := os.ReadFile(goldenFile(spec.Name, m.Name))
				if err != nil {
					t.Fatalf("missing schedule golden: %v", err)
				}
				if fp != string(want) {
					t.Errorf("tracing perturbed the schedule:\n%s", fingerprintDiff(string(want), fp))
				}
				if _, again := compileTraced(false); again != sum {
					t.Error("trace differs across identical runs")
				}
			})
		}
	}
}
