package core

// This file is the initiation-interval search of a single-configuration
// compilation: an escalating probe up to the first interval that
// schedules, followed by binary refinement back down to the smallest
// one. It is the searchStrategy of CompileContext. Refinement assumes
// feasibility is monotone in the interval; CompilePortfolio's variant
// race does not have that property and walks the intervals linearly
// instead (raceVariants in portfolio.go).

// probeSequence reproduces the escalating probe ladder: when small
// intervals fail, the step grows so communication-bound kernels (whose
// feasible interval sits far above the resource bound) are found in
// logarithmically many probes. The sequence depends only on the search
// bounds, not on any attempt's outcome.
func probeSequence(minII, maxII int) []int {
	seq := make([]int, 0, 32)
	step := 1
	for ii := minII; ii <= maxII; {
		seq = append(seq, ii)
		ii += step
		if next := step + (step+1)/2; next <= maxII/8+1 {
			step = next
		}
	}
	return seq
}

// runLadder walks the interval search: probe upward until the first
// feasible interval, then refine back down to the smallest one that
// schedules. Every attempt runs tryII with the given cancellation hook,
// folding its accounting into agg and fail and clocking its passes on
// the compilation's own clock. It returns the winning engine (nil when
// nothing scheduled), with the walk's interval, backtrack and memo
// totals folded into its stats, and on abort the interval the walk was
// trying.
func runLadder(c *Compilation, cancel func() bool, agg *Stats, fail *placeFail) (good *engine, abortII int, aborted bool, err error) {
	// One infeasibility memo per walk: dead ends proven at one interval
	// short-circuit every later interval that re-poses them.
	memo := newPermMemo()
	try := func(ii int) (*engine, bool, error) {
		return tryII(c.Kernel, c.Machine, c.Graph, c.Opts, ii, cancel, memo, agg, c.clock, fail)
	}
	failedBelow := c.MinII
	for _, ii := range probeSequence(c.MinII, c.MaxII) {
		e, ab, tryErr := try(ii)
		if tryErr != nil {
			return nil, ii, false, tryErr
		}
		if ab {
			return nil, ii, true, nil
		}
		if e != nil {
			good = e
			break
		}
		failedBelow = ii + 1
	}
	if good == nil {
		return nil, 0, false, nil
	}
	for failedBelow < good.ii {
		mid := (failedBelow + good.ii) / 2
		e, ab, tryErr := try(mid)
		if tryErr != nil {
			return nil, mid, false, tryErr
		}
		if ab {
			return nil, mid, true, nil
		}
		if e != nil {
			good = e
		} else {
			failedBelow = mid + 1
		}
	}
	good.foldSearch(agg)
	return good, 0, false, nil
}

// foldSearch folds an interval search's totals into its winning engine:
// the intervals tried, and the backtracks and memo hits of the failed
// attempts.
func (e *engine) foldSearch(agg *Stats) {
	e.stats.IIsTried = agg.IIsTried
	e.stats.Backtracks += agg.Backtracks
	e.stats.MemoHits += agg.MemoHits
}
