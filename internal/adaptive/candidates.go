package adaptive

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/model"
	"repro/internal/pareto"
	"repro/internal/workload"
)

// FrontierCandidates builds the planner's candidate set from the
// design space itself: it sweeps the limits with the memoized frontier
// engine, thins the time-energy Pareto frontier to at most n points
// (keeping both endpoints — the fastest and the lowest-energy
// configuration — and spreading the rest evenly along the frontier),
// and analyzes each survivor at the given power-curve resolution.
//
// This replaces hand-picked -mixes lists: the frontier is exactly the
// set of configurations worth switching between, since any off-frontier
// mix is dominated at every load by some frontier point.
func FrontierCandidates(limits []cluster.Limit, wl *workload.Profile, opt model.Options, n, samples int) ([]*energyprop.Analysis, error) {
	if n < 2 {
		return nil, fmt.Errorf("adaptive: need at least 2 candidates, asked for %d", n)
	}
	front, err := pareto.FrontierSweep(limits, wl, opt, pareto.SweepOptions{})
	if err != nil {
		return nil, err
	}
	if len(front) == 0 {
		return nil, fmt.Errorf("adaptive: empty frontier for %s", wl.Name)
	}

	idx := thinIndices(len(front), n)
	cands := make([]*energyprop.Analysis, 0, len(idx))
	for _, i := range idx {
		a, err := energyprop.Analyze(front[i].Config, wl, opt, samples)
		if err != nil {
			return nil, err
		}
		cands = append(cands, a)
	}
	return cands, nil
}

// thinIndices picks at most n of m indices: all of them when they fit,
// otherwise both endpoints plus an even spread in between.
func thinIndices(m, n int) []int {
	if m <= n {
		out := make([]int, m)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, n)
	last := -1
	for i := 0; i < n; i++ {
		j := i * (m - 1) / (n - 1)
		if j != last {
			out = append(out, j)
			last = j
		}
	}
	return out
}
