package analysis

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/pareto"
	"repro/internal/workload"
)

// SensitivityRow is one point of the PPR-ratio sensitivity study.
type SensitivityRow struct {
	// Ratio is the wimpy-to-brawny PPR ratio of the synthetic workload
	// variant (1 means both node types deliver the same work per joule).
	Ratio float64
	// TimeInflation is T_P of the sub-linear mix (25 A9 : 5 K10) over
	// T_P of the reference (32 A9 : 12 K10). At a fixed utilization the
	// M/D/1 response scales exactly with T_P, so this is also the
	// response-time inflation at every percentile.
	TimeInflation float64
	// PowerSaving is the fraction of the reference's average power the
	// sub-linear mix saves at 50% utilization.
	PowerSaving float64
	// EnergyPerUnitRatio compares energy per work unit (small/reference)
	// at full load; below 1 the small mix is strictly more efficient.
	EnergyPerUnitRatio float64
}

// SensitivityPPRRatio generalizes Section III-E beyond the six paper
// workloads: it synthesizes compute-bound workload variants whose
// wimpy-to-brawny PPR ratio sweeps the given values (holding the K10
// side at EP's published operating point and recalibrating the A9 side),
// then quantifies the cost of the paper's sub-linear configurations as a
// function of that ratio. The paper's claim — sub-linear configurations
// are near-free when the wimpy PPR is higher and expensive when it is
// lower — becomes a curve with a visible crossover.
func (s *Suite) SensitivityPPRRatio(ratios []float64) ([]SensitivityRow, error) {
	if len(ratios) == 0 {
		return nil, fmt.Errorf("analysis: no ratios")
	}
	base, err := workload.PaperSpec(workload.NameEP)
	if err != nil {
		return nil, err
	}
	k10PPR := base.Targets["K10"].PPR

	refCfg, err := s.mix(32, 12)
	if err != nil {
		return nil, err
	}
	smallCfg, err := s.mix(25, 5)
	if err != nil {
		return nil, err
	}

	var rows []SensitivityRow
	for _, r := range ratios {
		if r <= 0 {
			return nil, fmt.Errorf("analysis: non-positive PPR ratio %g", r)
		}
		spec := base
		spec.Name = fmt.Sprintf("EP-pprx%.2f", r)
		targets := make(map[string]workload.Targets, len(base.Targets))
		for nt, tgt := range base.Targets {
			targets[nt] = tgt
		}
		a9 := targets["A9"]
		a9.PPR = r * k10PPR
		targets["A9"] = a9
		spec.Targets = targets
		p, err := spec.Build(s.Catalog)
		if err != nil {
			return nil, fmt.Errorf("analysis: ratio %g: %w", r, err)
		}

		refA, err := s.analyzeProfile(refCfg, p)
		if err != nil {
			return nil, err
		}
		smallA, err := s.analyzeProfile(smallCfg, p)
		if err != nil {
			return nil, err
		}
		row := SensitivityRow{
			Ratio:         r,
			TimeInflation: float64(smallA.Result.Time) / float64(refA.Result.Time),
		}
		const u = 0.5
		row.PowerSaving = 1 - smallA.PowerAt(u)/refA.PowerAt(u)
		refEPU := float64(refA.Result.Energy) / p.JobUnits
		smallEPU := float64(smallA.Result.Energy) / p.JobUnits
		row.EnergyPerUnitRatio = smallEPU / refEPU
		rows = append(rows, row)
	}
	return rows, nil
}

// analyzeProfile is analyze for an already-built profile.
func (s *Suite) analyzeProfile(cfg cluster.Config, p *workload.Profile) (*energyprop.Analysis, error) {
	return energyprop.Analyze(cfg, p, s.Opt, s.CurvePanels)
}

// FullSpaceFrontier computes the energy-deadline Pareto frontier over
// the *complete* configuration space of footnote 4 — node counts, active
// cores per node and DVFS steps all free — rather than the node-count
// slice Figures 9/10 label. It answers a question the paper leaves
// open: do reduced-core or reduced-frequency operating points appear on
// the frontier, or is the frontier purely a node-count phenomenon?
type FullSpaceResult struct {
	Workload string
	// SpaceSize is the number of configurations enumerated.
	SpaceSize int
	// Frontier is the Pareto set.
	Frontier []pareto.Point
	// ThrottledPoints counts frontier configurations that use fewer
	// than the maximum cores or a sub-maximal frequency on some group.
	ThrottledPoints int
}

// FullSpaceFrontier enumerates up to maxA9 x maxK10 nodes with all core
// and frequency choices. The space grows as
// (maxA9*4*5 + 1) * (maxK10*6*3 + 1) - 1; 32x12 gives ~139k configs.
func (s *Suite) FullSpaceFrontier(wl string, maxA9, maxK10 int) (*FullSpaceResult, error) {
	arm, err := s.node("A9")
	if err != nil {
		return nil, err
	}
	amd, err := s.node("K10")
	if err != nil {
		return nil, err
	}
	p, err := s.profile(wl)
	if err != nil {
		return nil, err
	}
	limits := []cluster.Limit{
		{Type: arm, MaxNodes: maxA9},
		{Type: amd, MaxNodes: maxK10},
	}
	res := &FullSpaceResult{Workload: wl, SpaceSize: cluster.SpaceSize(limits)}

	// The memoized sweep engine streams the space itself: unit-calc
	// tables replace per-config Evaluate, the walk covers only each node
	// type's dominance staircase, and only survivors get a materialized
	// model.Result.
	pr := s.progress("full-space "+wl, res.SpaceSize)
	front, err := pareto.FrontierSweep(limits, p, s.Opt, pareto.SweepOptions{Progress: pr})
	if err != nil {
		return nil, err
	}
	res.Frontier = front
	for _, pt := range res.Frontier {
		for _, g := range pt.Config.Groups {
			if g.Cores != g.Type.Cores || g.Freq != g.Type.FMax() {
				res.ThrottledPoints++
				break
			}
		}
	}
	return res, nil
}
