package commsched

import "testing"

// TestRegisterAwareTable pins the §7 register-pressure table
// (`paperfigs -regalloc`, EXPERIMENTS.md §7): on the distributed
// machine, the II and worst per-file overflow of default routing and of
// register-aware routing. Sort and Merge, which register-aware routing
// refuses, are left out: proving the refusal takes most of a minute.
func TestRegisterAwareTable(t *testing.T) {
	for _, row := range []struct {
		kernel                   string
		ii, over, awareII, aware int
	}{
		{"DCT", 10, 1, 8, 0},
		{"FFT", 3, 0, 3, 0},
		{"FFT-U4", 14, 0, 14, 0},
		{"FIR-FP", 19, 6, 19, 4},
		{"FIR-INT", 19, 6, 19, 4},
		{"Block Warp", 4, 0, 4, 0},
		{"Block Warp-U2", 8, 0, 8, 0},
		{"Triangle Transform", 12, 0, 12, 0},
	} {
		t.Run(row.kernel, func(t *testing.T) {
			k := KernelByName(row.kernel).MustKernel()
			m := Distributed()
			base, err := Compile(k, m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			aware, err := Compile(k, m, Options{RegisterAware: true, MaxII: 2 * base.II})
			if err != nil {
				t.Fatal(err)
			}
			got := [4]int{base.II, WorstOverflow(base), aware.II, WorstOverflow(aware)}
			want := [4]int{row.ii, row.over, row.awareII, row.aware}
			if got != want {
				t.Errorf("II, overflow, aware II, aware overflow = %v, want %v", got, want)
			}
		})
	}
}
