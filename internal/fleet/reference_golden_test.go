package fleet_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/hardware"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// goldenSpecs builds the 21 runs TestGoldenFleetScenarios pins in
// testdata/fleet_scenarios.golden: every shipped scenario, and
// chaos-fleet.yaml cut to other sizes, horizons and slices, each at its
// own seed and the next two.
func goldenSpecs(t *testing.T) []fleet.Spec {
	t.Helper()
	catalog := hardware.DefaultCatalog()
	registry, err := workload.PaperRegistry(catalog)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("..", "..", "examples", "scenarios")
	paths, err := filepath.Glob(filepath.Join(dir, "*.yaml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario files (%v)", err)
	}
	type variant struct {
		path string
		cut  func(*scenario.Scenario)
	}
	var variants []variant
	for _, p := range paths {
		variants = append(variants, variant{p, func(*scenario.Scenario) {}})
	}
	for _, c := range []struct {
		nodes           int
		duration, slice units.Seconds
	}{{1200, 180, 0}, {50, 2 * 3600, 0.5}, {300, 3600, 7}} {
		variants = append(variants, variant{filepath.Join(dir, "chaos-fleet.yaml"), func(sc *scenario.Scenario) {
			sc.Nodes, sc.Duration = c.nodes, c.duration
			if c.slice > 0 {
				sc.Slice = c.slice
			}
		}})
	}
	var specs []fleet.Spec
	for _, v := range variants {
		sc, err := scenario.Load(v.path)
		if err != nil {
			t.Fatal(err)
		}
		v.cut(sc)
		base := sc.Seed
		for _, seed := range []uint64{base, base + 1, base + 2} {
			sc.Seed = seed
			spec, err := sc.Build(catalog, registry)
			if err != nil {
				t.Fatalf("%s: %v", v.path, err)
			}
			specs = append(specs, spec)
		}
	}
	return specs
}

// TestReferenceGoldenRuns runs every golden fleet run through the
// simulator and the serial oracle (fleet.CheckReference).
func TestReferenceGoldenRuns(t *testing.T) {
	specs := goldenSpecs(t)
	if len(specs) != 21 {
		t.Fatalf("%d golden runs, want 21", len(specs))
	}
	for i, spec := range specs {
		t.Run(fmt.Sprintf("%d-%s-seed=%d", i, spec.Name, spec.Seed), func(t *testing.T) {
			fleet.CheckReference(t, spec)
		})
	}
}

// TestNeverSaturatedRunLosesNothing: chaos-fleet.yaml at seed 42 never
// drops below the alive capacity that carries its offered load, so it
// loses no work at all, not the rounding residue of rescaling the
// fleet 700-odd times.
func TestNeverSaturatedRunLosesNothing(t *testing.T) {
	spec := goldenSpecs(t)[0]
	if spec.Name != "chaos-fleet" || spec.Seed != 42 {
		t.Fatalf("first golden run is %s seed %d, want chaos-fleet seed 42", spec.Name, spec.Seed)
	}
	res, saturated := fleet.CheckReference(t, spec)
	if saturated {
		t.Fatal("chaos-fleet seed 42 saturated; pick a run that does not")
	}
	if s := res.Summary; s.LostUnits != 0 {
		t.Errorf("never-saturated run lost %g of %g offered units", s.LostUnits, s.OfferedUnits)
	}
}
