package core_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/vliwsim"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite the portfolio goldens under testdata/portfolio from the current compiler")

// portfolioGolden renders the deterministic output of one portfolio
// run: the race's counters (winner, per-variant tries, bests and
// copies), the per-pass runs/steps/fails that cschedd serves in its
// response bodies, and the winning schedule's fingerprint. Wall times
// are left out.
func portfolioGolden(s *core.Schedule, st *core.PortfolioStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workers=%d minII=%d winner=%s II=%d tried=%d\n",
		st.Workers, st.MinII, st.WinnerName(), st.WinnerII, st.IIsTried)
	for _, v := range st.Variants {
		fmt.Fprintf(&b, "variant %s %s tried=%d bestII=%d copies=%d\n",
			v.Name, v.Pipeline, v.IIsTried, v.BestII, v.Copies)
	}
	for _, p := range s.Passes {
		fmt.Fprintf(&b, "pass %s runs=%d steps=%d fails=%d\n", p.Name, p.Runs, p.Steps, p.Fails)
	}
	b.WriteString(s.Fingerprint())
	return b.String()
}

// TestPortfolioDifferential is the differential harness: for every
// Table 1 kernel on every paper architecture, the portfolio schedule
// must pass the independent structural verifier, simulate cleanly on
// the cycle-accurate machine model, match the kernel's reference
// outputs, and leave memory bit-identical to the sequential Compile
// schedule's simulation. The portfolio may pick a different (better)
// interval or variant than the sequential scheduler; the program
// semantics may not change. Its deterministic output must also match
// the golden under testdata/portfolio (regenerate deliberately with
// -update-goldens).
func TestPortfolioDifferential(t *testing.T) {
	specs := kernels.All()
	if testing.Short() {
		// The fast representatives: one fixed-point, one floating-point,
		// one unrolled, one control-heavy kernel.
		var fast []*kernels.Spec
		for _, s := range specs {
			switch s.Name {
			case "DCT", "FFT", "Block Warp", "Merge":
				fast = append(fast, s)
			}
		}
		specs = fast
	}
	archs := []*machine.Machine{
		machine.Central(), machine.Clustered(2), machine.Clustered(4), machine.Distributed(),
	}
	for _, m := range archs {
		for _, spec := range specs {
			t.Run(m.Name+"/"+spec.Name, func(t *testing.T) {
				k, err := spec.Kernel()
				if err != nil {
					t.Fatal(err)
				}
				seq, err := core.Compile(k, m, core.Options{})
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}
				pf, stats, err := core.CompilePortfolio(context.Background(), k, m, core.Options{}, core.PortfolioOptions{Workers: 4})
				if err != nil {
					t.Fatalf("portfolio: %v", err)
				}
				if err := core.VerifySchedule(pf); err != nil {
					t.Fatalf("portfolio schedule fails verification: %v", err)
				}
				got := portfolioGolden(pf, stats)
				path := filepath.Join("testdata", "portfolio",
					strings.ReplaceAll(strings.ToLower(spec.Name), " ", "_")+"__"+m.Name+".golden")
				if *updateGoldens {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				} else if want, err := os.ReadFile(path); err != nil {
					t.Errorf("missing golden (run go test ./internal/core -run TestPortfolioDifferential -update-goldens): %v", err)
				} else if got != string(want) {
					t.Errorf("portfolio output diverged from golden %s:\n%s", path, firstDiff(string(want), got))
				}
				if pf.II > seq.II {
					t.Errorf("portfolio II=%d (winner %s) worse than sequential II=%d",
						pf.II, stats.WinnerName(), seq.II)
				}

				cfg := vliwsim.Config{InitMem: spec.Init()}
				seqRes, err := vliwsim.Run(seq, cfg)
				if err != nil {
					t.Fatalf("sequential simulation: %v", err)
				}
				pfRes, err := vliwsim.Run(pf, vliwsim.Config{InitMem: spec.Init()})
				if err != nil {
					t.Fatalf("portfolio simulation: %v", err)
				}
				if err := spec.Check(pfRes.Mem); err != nil {
					t.Fatalf("portfolio outputs fail the reference check: %v", err)
				}
				if !reflect.DeepEqual(seqRes.Mem, pfRes.Mem) {
					t.Fatalf("portfolio simulation memory differs from sequential")
				}
				if seqRes.IterationsRun != pfRes.IterationsRun {
					t.Fatalf("iteration counts differ: sequential %d, portfolio %d",
						seqRes.IterationsRun, pfRes.IterationsRun)
				}
			})
		}
	}
}

// firstDiff reports the first differing line of two goldens.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("  line %d\n  want: %s\n  got:  %s", i+1, w, g)
		}
	}
	return "  (no line differs)"
}
