package characterize

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/simulator"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestPowerParamsRecoverNominal: the fitted power parameters must land
// within the device-binning band of the catalog values.
func TestPowerParamsRecoverNominal(t *testing.T) {
	cat := hardware.DefaultCatalog()
	for _, name := range []string{"A9", "K10"} {
		node, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := PowerParams(node, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checks := []struct {
			label     string
			got, want float64
			tol       float64
		}{
			{"idle", float64(res.Params.Idle), float64(node.Power.Idle), 0.10},
			{"act/core", float64(res.Params.CPUActPerCore), float64(node.Power.CPUActPerCore), 0.15},
			{"stall/core", float64(res.Params.CPUStallPerCore), float64(node.Power.CPUStallPerCore), 0.35},
			{"net", float64(res.Params.Net), float64(node.Power.Net), 0.35},
		}
		for _, c := range checks {
			if stats.RelErr(c.got, c.want) > c.tol {
				t.Errorf("%s %s: fitted %.3g, nominal %.3g", name, c.label, c.got, c.want)
			}
		}
	}
}

// TestDemandsRecoverProfile: extracted demand vectors must approximate
// the calibrated profile that drove the simulation.
func TestDemandsRecoverProfile(t *testing.T) {
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	node, err := cat.Lookup("K10")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	pw, err := PowerParams(node, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{workload.NameEP, workload.NameX264, workload.NameBlackscholes} {
		wl, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := Demands(node, wl, pw.Params, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := wl.Demand(node.Name)
		if err != nil {
			t.Fatal(err)
		}
		// The simulator's noise and contention inflate the counters; the
		// extraction should still land within ~15%.
		if stats.RelErr(float64(dm.Demand.CoreCycles), float64(want.CoreCycles)) > 0.15 {
			t.Errorf("%s core cycles: fitted %.4g, true %.4g", name, float64(dm.Demand.CoreCycles), float64(want.CoreCycles))
		}
		if want.MemCycles > 0 && stats.RelErr(float64(dm.Demand.MemCycles), float64(want.MemCycles)) > 0.25 {
			t.Errorf("%s mem cycles: fitted %.4g, true %.4g", name, float64(dm.Demand.MemCycles), float64(want.MemCycles))
		}
		if dm.Demand.Intensity <= 0 || dm.Demand.Intensity > 1.5 {
			t.Errorf("%s intensity out of range: %g", name, dm.Demand.Intensity)
		}
	}
}

// TestRoundTripValidation: the full fitted pipeline (fit the power
// parameters, extract the demands under them, evaluate the model with
// both) must predict the simulator within the paper's validation band.
func TestRoundTripValidation(t *testing.T) {
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	node, err := cat.Lookup("A9")
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	for _, name := range []string{workload.NameEP, workload.NameRSA} {
		wl, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := PowerParams(node, opt)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := Demands(node, wl, pw.Params, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fittedNode := *node
		fittedNode.Power = pw.Params
		fittedWl := workload.NewProfile(wl.Name, wl.Domain, wl.Unit, wl.JobUnits)
		fittedWl.IORate = wl.IORate
		if err := fittedWl.SetDemand(node.Name, dm.Demand); err != nil {
			t.Fatal(err)
		}
		fitted, err := model.Evaluate(cluster.MustConfig(cluster.FullNodes(&fittedNode, 1)), fittedWl, model.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sim, err := simulator.Run(cluster.MustConfig(cluster.FullNodes(node, 1)), wl,
			opt.Effects, opt.Meter, opt.Seed+99)
		if err != nil {
			t.Fatal(err)
		}
		if stats.RelErr(float64(fitted.Time), float64(sim.Time)) > 0.20 {
			t.Errorf("%s: fitted-model time %v vs simulated %v", name, fitted.Time, sim.Time)
		}
		if stats.RelErr(float64(fitted.Energy), float64(sim.Measured.Energy)) > 0.20 {
			t.Errorf("%s: fitted-model energy %v vs measured %v", name, fitted.Energy, sim.Measured.Energy)
		}
	}
}
