package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// scaledDown is w cut to a smoke-test size: one round of two pairs, a
// second or two of serving, a few keys to verify.
func scaledDown(t *testing.T, name string) (*workload, time.Duration) {
	t.Helper()
	w, err := loadWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.SetupReps = 1
	switch name {
	case "compile-hard":
		w.Pairs = w.Pairs[3:5] // Merge, the lightest pairs of the set
	case "compile-light":
		w.Pairs = w.Pairs[:2]
	case "serve-hot":
		w.Hot = w.Hot[:4]
		return w, time.Second
	case "serve-mixed":
		w.Verify = w.Verify[:2]
		w.CacheBytes = 64 << 10 // evict, and so reach the disk tier, within the run
		return w, 1500 * time.Millisecond
	}
	return w, time.Nanosecond // one round per phase
}

func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, bench has %v", names, workloadNames)
	}
	layers, err := perLayer()
	if err != nil {
		t.Fatal(err)
	}
	if len(layers) != len(bf.PerLayer) || len(endToEnd) != len(bf.EndToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, bench reports %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(layers))
	}

	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(fmt.Sprintf("%s/trace=%t", name, trace), func(t *testing.T) {
				t.Parallel()
				w, d := scaledDown(t, name)
				o := runOpts{seed: 7, seconds: d, trace: trace, workdir: t.TempDir(), nproc: 2, minTail: 1}
				if trace {
					o.tracer = newTracer()
				}
				res, r, err := run(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("not correct: %v", r.problems)
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				var got map[string]json.RawMessage
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				if len(got) != 4 {
					t.Fatalf("result line has keys %v", got)
				}
				want := bf.EndToEnd
				if trace {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("metric %s = %+v, want unit %s", m.Name, v, m.Unit)
					}
				}
			})
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {99, 5}, {20, 1}, {21, 2}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g", got)
	}

	// A full run reports p99 only from 1000 samples or more: ten beyond it.
	if _, err := tailPercentile(make([]float64, 999), 99, 1000); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if got, err := tailPercentile(lat, 99, 1000); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990", got, err)
	}
}

// TestOpenLoopAccounting checks that an open loop times each operation
// from its due time: operations due while every sender is busy go out
// late, and their latency includes the wait.
func TestOpenLoopAccounting(t *testing.T) {
	const slow = 80 * time.Millisecond
	dues := []time.Duration{0, 0, 10 * time.Millisecond, 10 * time.Millisecond}
	samples := openLoop(dues, 2, func(_, i int) {
		if i < 2 {
			time.Sleep(slow)
		}
	})
	for i, s := range samples {
		if s.due != dues[i] {
			t.Errorf("op %d due %v, want %v", i, s.due, dues[i])
		}
		if s.latency() < s.late() || s.latency() != s.done-s.due {
			t.Errorf("op %d: latency %v, late %v", i, s.latency(), s.late())
		}
	}
	for _, i := range []int{0, 1} {
		if s := samples[i]; s.late() > slow/2 || s.latency() < slow {
			t.Errorf("op %d: late %v, latency %v; want on time and at least %v", i, s.late(), s.latency(), slow)
		}
	}
	for _, i := range []int{2, 3} {
		if s := samples[i]; s.late() < slow-dues[i]-5*time.Millisecond {
			t.Errorf("op %d: late %v; both senders were busy until %v", i, s.late(), slow)
		}
	}
}

// TestMixedScheduleUsesWholePool checks the committed serve-mixed inputs
// at the benchmark's run length: the same seed gives the same stream,
// another seed the same requests at other due times, every miss-pool key
// leaves the pool exactly once, the kinds come in the committed shares,
// and a join pair shares one due time.
func TestMixedScheduleUsesWholePool(t *testing.T) {
	w, err := loadWorkload("serve-mixed")
	if err != nil {
		t.Fatal(err)
	}
	d := time.Duration(readBenchmarkFile(t).RunSeconds) * time.Second
	sv := &serveRun{w: w, o: runOpts{seed: 3}, entries: map[string]*entry{}}
	if sv.pool, err = sv.entryList(w.MissPool); err != nil {
		t.Fatal(err)
	}
	if sv.folio, err = sv.entryList(w.PortfolioPool); err != nil {
		t.Fatal(err)
	}
	reqs, dues := sv.mixedSchedule(d)
	again, againDues := sv.mixedSchedule(d)
	sv.o.seed = 4
	other, otherDues := sv.mixedSchedule(d)
	moved := 0
	for i := range reqs {
		if string(reqs[i].body) != string(again[i].body) || dues[i] != againDues[i] {
			t.Fatalf("request %d differs between two schedules of one seed", i)
		}
		if string(reqs[i].body) != string(other[i].body) {
			t.Fatalf("request %d differs between two seeds", i)
		}
		if dues[i] != otherDues[i] {
			moved++
		}
	}
	if moved < len(reqs)/2 {
		t.Errorf("another seed moved %d of %d due times", moved, len(reqs))
	}

	want := w.RatePerS * d.Seconds()
	if n := float64(len(reqs)); n < want*0.99 || n > want*1.01 {
		t.Errorf("%d requests, want %g", len(reqs), want)
	}
	sent := map[*entry]bool{}
	fresh := map[*entry]int{}
	var invalid, joins int
	for i, r := range reqs {
		switch r.kind {
		case kindInvalid:
			invalid++
		case kindJoin:
			joins++
			if reqs[i-1].kind != kindNew || reqs[i-1].entry != r.entry || dues[i-1] != dues[i] {
				t.Errorf("join %d does not share its new key's due time", i)
			}
		case kindNew:
			fresh[r.entry]++
		case kindRepeat, kindInline:
			if !sent[r.entry] {
				t.Errorf("request %d repeats a key not sent before", i)
			}
		}
		if r.entry != nil {
			sent[r.entry] = true
		}
		if i > 0 && dues[i] < dues[i-1] {
			t.Fatalf("due times go backwards at %d", i)
		}
	}
	for _, e := range sv.pool {
		if fresh[e] != 1 {
			t.Errorf("pool key %s sent as new %d times, want 1", e.key, fresh[e])
		}
	}
	n := float64(len(reqs))
	for _, c := range []struct {
		name       string
		got, share float64
	}{{"invalid", float64(invalid), w.Mix.Invalid}, {"join", float64(joins), w.Mix.Join}} {
		if got := c.got / n; got < c.share-0.01 || got > c.share+0.01 {
			t.Errorf("%s share %.3f, want %.2f", c.name, got, c.share)
		}
	}
	if last := dues[len(dues)-1]; last > d || last < d*9/10 {
		t.Errorf("last request due at %v of a %v run", last, d)
	}
}
