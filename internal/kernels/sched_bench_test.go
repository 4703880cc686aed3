package kernels

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

// Scheduling-throughput benchmarks over representative kernels: the
// mid-size FIR, the comparator-heavy Merge and Sort networks (the
// scheduler's stress cases), and Sort on the copy-bound clustered
// machine. The memohits metric reports the infeasibility memo's work.
// Run with:
//
//	go test ./internal/kernels -bench Sched -benchmem

func benchCompile(b *testing.B, spec *Spec, m *machine.Machine, opts core.Options) {
	b.Helper()
	k := spec.MustKernel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.Compile(k, m, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(s.II), "II")
			b.ReportMetric(float64(s.Stats.Attempts), "attempts")
			b.ReportMetric(float64(s.Stats.MemoHits), "memohits")
		}
	}
}

func BenchmarkSchedFIRINTDistributed(b *testing.B) {
	benchCompile(b, FIRINT(), machine.Distributed(), core.Options{})
}
func BenchmarkSchedMergeDistributed(b *testing.B) {
	benchCompile(b, Merge(), machine.Distributed(), core.Options{})
}
func BenchmarkSchedSortDistributed(b *testing.B) {
	benchCompile(b, Sort(), machine.Distributed(), core.Options{})
}
func BenchmarkSchedSortClustered4(b *testing.B) {
	benchCompile(b, Sort(), machine.Clustered(4), core.Options{})
}
