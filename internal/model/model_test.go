package model

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

func paperSetup(t *testing.T) (*hardware.Catalog, *workload.Registry) {
	t.Helper()
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatalf("PaperRegistry: %v", err)
	}
	return cat, reg
}

func singleNode(t *testing.T, cat *hardware.Catalog, name string) cluster.Config {
	t.Helper()
	nt, err := cat.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return cluster.MustConfig(cluster.FullNodes(nt, 1))
}

// TestCalibrationRoundTripPPR verifies that the forward model reproduces
// the paper's Table 6 PPR values the demands were calibrated from.
func TestCalibrationRoundTripPPR(t *testing.T) {
	cat, reg := paperSetup(t)
	for _, wl := range workload.PaperNames() {
		p, err := reg.Lookup(wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range []string{"A9", "K10"} {
			res, err := Evaluate(singleNode(t, cat, node), p, Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", wl, node, err)
			}
			want := workload.PaperPPR[wl][node]
			if got := res.PPR(); stats.RelErr(got, want) > 0.01 {
				t.Errorf("%s on %s: PPR = %.6g, want %.6g (Table 6)", wl, node, got, want)
			}
		}
	}
}

// TestCalibrationRoundTripIPR verifies the paper's Table 7 idle-to-peak
// ratios round-trip through the model.
func TestCalibrationRoundTripIPR(t *testing.T) {
	cat, reg := paperSetup(t)
	for _, wl := range workload.PaperNames() {
		p, err := reg.Lookup(wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range []string{"A9", "K10"} {
			res, err := Evaluate(singleNode(t, cat, node), p, Options{})
			if err != nil {
				t.Fatalf("%s on %s: %v", wl, node, err)
			}
			want := workload.PaperIPR[wl][node]
			got := float64(res.IdlePower) / float64(res.BusyPower)
			if stats.RelErr(got, want) > 0.01 {
				t.Errorf("%s on %s: IPR = %.4f, want %.4f (Table 7)", wl, node, got, want)
			}
		}
	}
}

// TestRateMatchedSplitEqualizesFinishTimes checks the Section II-D
// invariant that all node types finish together.
func TestRateMatchedSplitEqualizesFinishTimes(t *testing.T) {
	cat, reg := paperSetup(t)
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	cfg := cluster.MustConfig(cluster.FullNodes(a9, 32), cluster.FullNodes(k10, 12))
	for _, wl := range workload.PaperNames() {
		p, err := reg.Lookup(wl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Evaluate(cfg, p, Options{})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		for _, g := range res.Groups {
			if math.Abs(float64(g.T-res.Time))/float64(res.Time) > 1e-9 {
				t.Errorf("%s: group %s finishes at %v, job at %v", wl, g.Group.Type.Name, g.T, res.Time)
			}
		}
	}
}

// TestHeterogeneousFasterThanParts confirms adding nodes reduces time.
func TestHeterogeneousFasterThanParts(t *testing.T) {
	cat, reg := paperSetup(t)
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	p, err := reg.Lookup(workload.NameEP)
	if err != nil {
		t.Fatal(err)
	}
	only9, err := Evaluate(cluster.MustConfig(cluster.FullNodes(a9, 8)), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := Evaluate(cluster.MustConfig(cluster.FullNodes(a9, 8), cluster.FullNodes(k10, 2)), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mix.Time >= only9.Time {
		t.Errorf("mix time %v not below A9-only time %v", mix.Time, only9.Time)
	}
}

// TestEnergyDecompositionSums checks E_P equals the per-group component sum.
func TestEnergyDecompositionSums(t *testing.T) {
	cat, reg := paperSetup(t)
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	cfg := cluster.MustConfig(cluster.FullNodes(a9, 3), cluster.FullNodes(k10, 2))
	p, err := reg.Lookup(workload.NameBlackscholes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(cfg, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sum units.Joules
	for _, g := range res.Groups {
		sum += units.Joules(float64(g.EnergyPerNode()) * float64(g.Group.Count))
	}
	if stats.RelErr(float64(sum), float64(res.Energy)) > 1e-12 {
		t.Errorf("component sum %v != total %v", sum, res.Energy)
	}
}
