// Command budgetsweep measures the §4.4 permutation step budget
// (Options.PermBudget) as a knob. For each budget it compiles every
// Table 1 kernel on the four §5 machines (the 40 pairs of the schedule
// goldens) and on paired, at default options otherwise, and prints one
// markdown table row per budget and machine set, the default budget
// first: Σ II, Σ copies, Σ perm steps, Σ memo hits and Σ wall. Every
// pair whose II or copy count differs from the default budget's is
// listed after the table.
//
//	go run ./scripts/budgetsweep
//
// Perm steps and memo hits are the schedule's Stats: perm steps count
// the winning interval's attempt only, memo hits the whole walk. Wall
// is the fastest of three compiles per pair, run one at a time; every
// other column is deterministic.
package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/machine"
)

type result struct {
	ii, copies, steps, hits int
	wall                    time.Duration
}

// reps is the number of compiles per pair; wall is the fastest.
const reps = 3

func main() {
	// Options.PermBudget 0 is the default budget (4096).
	budgets := []int{0, 512, 1024, 2048}
	sets := []struct {
		name     string
		machines []*machine.Machine
	}{
		{"40 pairs", []*machine.Machine{machine.Central(), machine.Clustered(2), machine.Clustered(4), machine.Distributed()}},
		{"paired", []*machine.Machine{machine.Paired()}},
	}

	// The default budget's outcome per pair, for the difference list.
	ref := map[string]result{}
	var diffs []string
	fmt.Println("| budget | machines | Σ II | Σ copies | Σ perm steps | Σ memo hits | Σ wall (s) |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, budget := range budgets {
		label := strconv.Itoa(budget)
		if budget == 0 {
			label = "default"
		}
		for _, set := range sets {
			var sum result
			for _, m := range set.machines {
				for _, spec := range kernels.All() {
					r, err := compile(spec.MustKernel(), m, budget)
					if err != nil {
						fmt.Fprintf(os.Stderr, "budgetsweep: %s/%s at budget %s: %v\n", spec.Name, m.Name, label, err)
						os.Exit(1)
					}
					pair := spec.Name + "/" + m.Name
					if budget == 0 {
						ref[pair] = r
					} else if d := ref[pair]; d.ii != r.ii || d.copies != r.copies {
						diffs = append(diffs, fmt.Sprintf("- budget %d, %s: II %d → %d, copies %d → %d",
							budget, pair, d.ii, r.ii, d.copies, r.copies))
					}
					sum.ii += r.ii
					sum.copies += r.copies
					sum.steps += r.steps
					sum.hits += r.hits
					sum.wall += r.wall
				}
			}
			fmt.Printf("| %s | %s | %d | %d | %d | %d | %.2f |\n",
				label, set.name, sum.ii, sum.copies, sum.steps, sum.hits, sum.wall.Seconds())
		}
	}
	fmt.Println("\nPairs whose II or copies differ from the default budget:")
	if len(diffs) == 0 {
		fmt.Println("- none")
	}
	for _, d := range diffs {
		fmt.Println(d)
	}
}

// compile schedules one pair reps times at the given budget (0: the
// default) and returns its outcome with the fastest wall.
func compile(k *ir.Kernel, m *machine.Machine, budget int) (result, error) {
	var r result
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s, err := core.Compile(k, m, core.Options{PermBudget: budget})
		wall := time.Since(t0)
		if err != nil {
			return r, err
		}
		if i == 0 || wall < r.wall {
			r.wall = wall
		}
		r.ii, r.copies = s.II, len(s.Ops)-len(k.Ops)
		r.steps, r.hits = s.Stats.PermSteps, s.Stats.MemoHits
	}
	return r, nil
}
