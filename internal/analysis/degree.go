package analysis

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/hardware"
	"repro/internal/pareto"
	"repro/internal/workload"
)

// DegreeRow summarizes the configuration space at one degree of
// inter-node heterogeneity d (the paper's d_max, which its evaluation
// never takes beyond 2).
type DegreeRow struct {
	// Degree is the number of distinct node types available.
	Degree int
	// Types names the node types.
	Types []string
	// SpaceSize is the enumerated configuration count.
	SpaceSize int
	// FrontierSize is the Pareto frontier size.
	FrontierSize int
	// Sublinear counts frontier configurations that are sub-linear
	// against the degree's own maximal configuration.
	Sublinear int
	// BestEnergy is the frontier's minimum energy (joules per job);
	// FastestTime its minimum time (seconds).
	BestEnergy  float64
	FastestTime float64
}

// DegreeStudy extends Section III-D beyond two node types: it evaluates
// a synthetic workload (calibrated demand shape shared across types)
// over 1-, 2- and 3-type spaces built from the catalog (A9; A9+K10;
// A9+A15+K10) and reports how the frontier and its sub-linear region
// grow with the degree of heterogeneity. maxPerType bounds node counts.
func (s *Suite) DegreeStudy(maxPerType int, seed uint64) ([]DegreeRow, error) {
	if maxPerType < 1 {
		return nil, fmt.Errorf("analysis: maxPerType must be positive")
	}
	// One synthetic workload covering every catalog type, deterministic
	// in the seed.
	profiles, err := workload.Generate(s.Catalog, workload.DefaultSyntheticSpec(), 1, seed)
	if err != nil {
		return nil, err
	}
	if len(profiles) != 1 {
		return nil, fmt.Errorf("analysis: synthetic generation failed")
	}
	p := profiles[0]

	tiers := [][]string{
		{"A9"},
		{"A9", "K10"},
		{"A9", "A15", "K10"},
	}
	var rows []DegreeRow
	for _, names := range tiers {
		var limits []cluster.Limit
		var types []*hardware.NodeType
		for _, n := range names {
			nt, err := s.node(n)
			if err != nil {
				return nil, err
			}
			types = append(types, nt)
			limits = append(limits, cluster.Limit{Type: nt, MaxNodes: maxPerType, FixCoresAndFreq: true})
		}
		row := DegreeRow{Degree: len(names), Types: names, SpaceSize: cluster.SpaceSize(limits)}

		frontier, err := pareto.FrontierSweep(limits, p, s.Opt, pareto.SweepOptions{})
		if err != nil {
			return nil, err
		}
		row.FrontierSize = len(frontier)
		if len(frontier) > 0 {
			row.FastestTime = float64(frontier[0].Time)
			row.BestEnergy = float64(frontier[len(frontier)-1].Energy)
		}

		// Reference: the maximal configuration of this degree.
		var groups []cluster.Group
		for _, nt := range types {
			groups = append(groups, cluster.FullNodes(nt, maxPerType))
		}
		refCfg, err := cluster.NewConfig(groups...)
		if err != nil {
			return nil, err
		}
		refA, err := energyprop.Analyze(refCfg, p, s.Opt, s.CurvePanels)
		if err != nil {
			return nil, err
		}
		ref := energyprop.Reference{PeakPower: float64(refA.Result.BusyPower)}
		for _, pt := range frontier {
			a, err := energyprop.Analyze(pt.Config, p, s.Opt, s.CurvePanels)
			if err != nil {
				return nil, err
			}
			if _, ok := ref.SublinearCrossover(a.CurveRes); ok {
				row.Sublinear++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
