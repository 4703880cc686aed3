// Command bench is the repository's benchmark: one workload per run,
// end-to-end metrics from an untraced run, per-layer metrics from a
// traced one. Run it through bench/run.sh from the repository root:
//
//	bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result: correct, attempted,
// failed, and every metric of the run's kind with its unit. A readable
// table goes to standard error. The exit status is 1 when a correctness
// check failed and 2 when the run could not be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef is one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
// Compile workloads count a compile as an operation, serve workloads a
// request.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"ii_sum", "cycles"},
	{"copies_sum", "ops"},
	{"within_slo_share", "fraction"},
}

// requestStages are the daemon's request-pipeline stages, as its access
// log names them.
var requestStages = []string{
	"resolve", "cache-probe", "disk-probe", "singleflight-wait",
	"queue-wait", "pool-acquire", "compile", "serialize",
}

// dispositions are the daemon's schedule-cache outcomes.
var dispositions = []string{"hit", "disk", "miss", "join"}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not reach reports 0.
func perLayer() ([]metricDef, error) {
	defs := []metricDef{
		{"kasm.compile_ms", "ms"}, {"machine.build_ms", "ms"},
		{"machine.routes_ms", "ms"}, {"daemon.key_us", "us"},
	}
	for _, p := range passNames {
		defs = append(defs, metricDef{"core." + p + ".self_ms", "ms"}, metricDef{"core." + p + ".runs", "count"},
			metricDef{"core." + p + ".steps", "count"}, metricDef{"core." + p + ".fails", "count"})
	}
	defs = append(defs,
		metricDef{"core.pass_coverage", "fraction"},
		metricDef{"core.search.attempts", "count"}, metricDef{"core.search.attempt_fail_ratio", "fraction"},
		metricDef{"core.search.perm_steps", "count"}, metricDef{"core.search.memo_hits", "count"},
		metricDef{"core.search.iis_tried", "count"}, metricDef{"core.search.backtracks", "count"})
	for _, name := range workloadNames {
		w, err := loadWorkload(name)
		if err != nil {
			return nil, err
		}
		for _, k := range w.Pairs {
			defs = append(defs, metricDef{pairMetric(k), "ms"})
		}
	}
	defs = append(defs, metricDef{"vliwsim.run_ms", "ms"}, metricDef{"vliwsim.cycles_sum", "cycles"})
	for _, s := range requestStages {
		defs = append(defs, metricDef{"daemon." + s + ".p50_ms", "ms"}, metricDef{"daemon." + s + ".p99_ms", "ms"})
	}
	defs = append(defs, metricDef{"daemon.stage_coverage", "fraction"})
	for _, d := range dispositions {
		defs = append(defs, metricDef{"daemon." + d + "_share", "fraction"}, metricDef{"daemon." + d + ".p50_ms", "ms"})
	}
	return append(defs,
		metricDef{"daemon.compilations", "count"}, metricDef{"daemon.cache_evictions", "count"},
		metricDef{"daemon.disk_corrupt", "count"},
		metricDef{"loadgen.late_p99_ms", "ms"}, metricDef{"loadgen.sent", "count"},
		metricDef{"loadgen.cpu_util", "fraction"},
		metricDef{"bench.trace_overhead_share", "fraction"}), nil
}

// runOpts are one run's settings.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	tracer  *tracer // nil unless trace
	workdir string
	nproc   int
	// minTail is the fewest latency samples a serve workload reports
	// latency_p99_ms from.
	minTail int
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }
func (r *report) add(name string, v float64) { r.values[name] += v }

// opFailed counts a failed operation and keeps its reason.
func (r *report) opFailed(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

// problem records a failed correctness check.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run makes one run of w and returns its result line.
func run(w *workload, o runOpts) (*result, *report, error) {
	// Set-ups and compiles run on this goroutine and are timed with its
	// thread's CPU clock, so it keeps one thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	r := newReport()
	var err error
	switch w.Kind {
	case "compile":
		err = runCompile(w, o, r)
	case "serve":
		err = runServe(w, o, r)
	default:
		err = fmt.Errorf("workload %s: unknown kind %q", w.Name, w.Kind)
	}
	if err != nil {
		return nil, r, err
	}
	r.set("peak_rss_mb", peakRSSMB())

	defs := endToEnd
	if o.trace {
		if defs, err = perLayer(); err != nil {
			return nil, r, err
		}
	}
	res := &result{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !o.trace {
			return nil, r, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, r, fmt.Errorf("metric %s = %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, r, nil
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printTable writes the run's metrics and problems for a reader.
func printTable(out io.Writer, w *workload, res *result, r *report) {
	fmt.Fprintf(out, "%s: correct=%t attempted=%d failed=%d\n", w.Name, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(out, "  %-44s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(out, "  FAIL %s\n", p)
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 20, "seconds one run measures")
		trace   = flag.Int("trace", 0, "1 makes a traced run, which reports the per-layer metrics")
		workdir = flag.String("workdir", ".bench_build", "directory for disk-tier temp dirs and span files")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1>"))
	}
	w, err := loadWorkload(*name)
	if err != nil {
		fail(err)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fail(err)
	}
	o := runOpts{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		workdir: *workdir, nproc: nproc, minTail: 1000,
	}
	if o.trace {
		o.tracer = newTracer()
	}
	res, r, err := run(w, o)
	if err != nil {
		fail(err)
	}
	spans := filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.json", w.Name, *seed))
	if err := o.tracer.write(spans); err != nil {
		fail(err)
	}
	info, _ := json.Marshal(map[string]any{
		"workload": w.Name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": commit(),
	})
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	printTable(os.Stderr, w, res, r)
	fmt.Printf("%s\n%s\n", info, line)
	if !res.Correct {
		os.Exit(1)
	}
}
