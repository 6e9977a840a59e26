package analysis

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/pareto"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestSensitivityCrossover: as the wimpy-to-brawny PPR ratio falls, the
// time cost of the sub-linear (25,5) mix must rise, and its energy-per-
// unit advantage must flip into a penalty — the generalization of the
// paper's EP-versus-x264 asymmetry.
func TestSensitivityCrossover(t *testing.T) {
	s := suite(t)
	ratios := []float64{0.25, 0.5, 1, 2, 4, 8}
	rows, err := s.SensitivityPPRRatio(ratios)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ratios) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TimeInflation >= rows[i-1].TimeInflation {
			t.Errorf("time inflation not decreasing with PPR ratio: %.3f at r=%g after %.3f at r=%g",
				rows[i].TimeInflation, rows[i].Ratio, rows[i-1].TimeInflation, rows[i-1].Ratio)
		}
	}
	// Inflation must always be at least 1 (removing nodes cannot speed
	// the cluster up) and the power saving positive (fewer nodes burn
	// less).
	for _, r := range rows {
		if r.TimeInflation < 1 {
			t.Errorf("r=%g: time inflation %.3f below 1", r.Ratio, r.TimeInflation)
		}
		if r.PowerSaving <= 0 {
			t.Errorf("r=%g: no power saving (%.3f)", r.Ratio, r.PowerSaving)
		}
	}
	// At a strongly wimpy-favoring ratio the small mix is more energy
	// efficient per unit; at a strongly brawny-favoring ratio it is not.
	if rows[len(rows)-1].EnergyPerUnitRatio >= 1 {
		t.Errorf("r=%g: energy per unit ratio %.3f, want < 1",
			rows[len(rows)-1].Ratio, rows[len(rows)-1].EnergyPerUnitRatio)
	}
	if rows[0].EnergyPerUnitRatio <= 1 {
		t.Errorf("r=%g: energy per unit ratio %.3f, want > 1",
			rows[0].Ratio, rows[0].EnergyPerUnitRatio)
	}
}

func TestSensitivityValidation(t *testing.T) {
	s := suite(t)
	if _, err := s.SensitivityPPRRatio(nil); err == nil {
		t.Error("empty ratio list accepted")
	}
	if _, err := s.SensitivityPPRRatio([]float64{-1}); err == nil {
		t.Error("negative ratio accepted")
	}
}

// TestFullSpaceFrontierSmall uses a reduced space (6 A9 x 3 K10, still
// with all core/frequency choices) to keep the test fast.
func TestFullSpaceFrontierSmall(t *testing.T) {
	s := suite(t)
	res, err := s.FullSpaceFrontier(workload.NameEP, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	// (6*4*5+1)*(3*6*3+1)-1 = 121*55-1 = 6654.
	if res.SpaceSize != 6654 {
		t.Errorf("space size %d, want 6654", res.SpaceSize)
	}
	// For EP at this small scale the frontier degenerates to the four
	// full-A9 mixes (6 A9 + k K10, k = 0..3): adding an A9 node always
	// improves both axes, and with so few K10 steps no throttled point
	// lands between two node-count points. (At the full 32x12 scale
	// throttled K10 configurations do reach the frontier — slowing a
	// brawny node shifts rate-matched work onto the more efficient
	// wimpy nodes; see BenchmarkExtensionFullSpacePareto.)
	if len(res.Frontier) < 3 {
		t.Errorf("frontier suspiciously small: %d", len(res.Frontier))
	}
	if res.ThrottledPoints != 0 {
		t.Errorf("%d throttled frontier points in the 6x3 space; expected none at this scale", res.ThrottledPoints)
	}
	// Frontier must be sorted by time with strictly decreasing energy.
	for i := 1; i < len(res.Frontier); i++ {
		if res.Frontier[i].Time <= res.Frontier[i-1].Time ||
			res.Frontier[i].Energy >= res.Frontier[i-1].Energy {
			t.Fatalf("frontier not strictly improving at %d", i)
		}
	}
	for _, pt := range res.Frontier {
		if pt.Config.Count("A9") != 6 {
			t.Errorf("frontier point %s does not hold A9 at max", pt.Config)
		}
	}
}

// TestFullSpaceAtLeastAsGoodAsFixed: on the shared node-count space the
// full frontier's minimum energy is <= the fixed-cores frontier's.
func TestFullSpaceAtLeastAsGoodAsFixed(t *testing.T) {
	s := suite(t)
	full, err := s.FullSpaceFrontier(workload.NameBlackscholes, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	minFull := full.Frontier[len(full.Frontier)-1].Energy
	fastFull := full.Frontier[0].Time

	// Fixed cores/freq over the same node counts.
	arm, _ := s.Catalog.Lookup("A9")
	amd, _ := s.Catalog.Lookup("K10")
	p, err := s.profile(workload.NameBlackscholes)
	if err != nil {
		t.Fatal(err)
	}
	fixedFront, err := frontierFixed(s, p, arm, amd, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	minFixed := fixedFront[len(fixedFront)-1].Energy
	fastFixed := fixedFront[0].Time
	if minFull > minFixed {
		t.Errorf("full-space min energy %v above fixed-space %v", minFull, minFixed)
	}
	if fastFull > fastFixed {
		t.Errorf("full-space fastest %v slower than fixed-space %v", fastFull, fastFixed)
	}
}

// frontierFixed computes the node-count-only frontier used as the
// comparison baseline.
func frontierFixed(s *Suite, p *workload.Profile, arm, amd *hardware.NodeType, maxA9, maxK10 int) ([]pareto.Point, error) {
	limits := []cluster.Limit{
		{Type: arm, MaxNodes: maxA9, FixCoresAndFreq: true},
		{Type: amd, MaxNodes: maxK10, FixCoresAndFreq: true},
	}
	return pareto.FrontierSweep(limits, p, s.Opt, pareto.SweepOptions{})
}

func TestSensitivityMonotonePowerSaving(t *testing.T) {
	s := suite(t)
	rows, err := s.SensitivityPPRRatio(stats.Linspace(0.5, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PowerSaving < 0.1 || r.PowerSaving > 0.9 {
			t.Errorf("r=%g: power saving %.3f outside plausible band", r.Ratio, r.PowerSaving)
		}
	}
}
