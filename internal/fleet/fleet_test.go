package fleet

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// testEnv returns the default catalog and paper workload registry.
func testEnv(t *testing.T) (*hardware.Catalog, *workload.Registry) {
	t.Helper()
	catalog := hardware.DefaultCatalog()
	registry, err := workload.PaperRegistry(catalog)
	if err != nil {
		t.Fatal(err)
	}
	return catalog, registry
}

func testSpec(t *testing.T, wlName string, u float64, dur units.Seconds) Spec {
	t.Helper()
	catalog, registry := testEnv(t)
	a9, err := catalog.Lookup("A9")
	if err != nil {
		t.Fatal(err)
	}
	k10, err := catalog.Lookup("K10")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := registry.Lookup(wlName)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Name:     "test",
		Workload: wl,
		Templates: []cluster.Group{
			cluster.FullNodes(a9, 8),
			cluster.FullNodes(k10, 2),
		},
		Duration:    dur,
		Slice:       1 * 1.0,
		Utilization: u,
		Seed:        1,
	}
}

func runSpec(t *testing.T, spec Spec) *Result {
	t.Helper()
	sim, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestSteadyStateWorkConservation(t *testing.T) {
	spec := testSpec(t, "EP", 0.6, 120)
	res := runSpec(t, spec)
	s := res.Summary

	if s.Nodes != 10 {
		t.Fatalf("nodes = %d, want 10", s.Nodes)
	}
	if s.LostUnits != 0 {
		t.Errorf("lost %g units in a clean under-utilized run", s.LostUnits)
	}
	if e := relErr(s.CompletedUnits+s.LostUnits, s.OfferedUnits); e > 1e-9 {
		t.Errorf("offered != completed + lost: %g vs %g (+%g), rel err %g",
			s.OfferedUnits, s.CompletedUnits, s.LostUnits, e)
	}
	if s.Failures != 0 || s.Availability != 1 || s.DownNodeSeconds != 0 {
		t.Errorf("clean run has chaos accounting: %+v", s)
	}
	if s.EnergyJoules <= 0 || s.AvgPowerWatts <= 0 || s.PeakPowerWatts <= 0 {
		t.Errorf("degenerate energy accounting: %+v", s)
	}
	// Power must sit between the idle floor and the busy ceiling.
	idle := 8*float64(hardware.NewA9().Power.Idle) + 2*float64(hardware.NewK10().Power.Idle)
	if s.AvgPowerWatts < idle {
		t.Errorf("avg power %g below idle floor %g", s.AvgPowerWatts, idle)
	}
	if s.PeakPowerWatts < s.AvgPowerWatts {
		t.Errorf("peak %g below average %g", s.PeakPowerWatts, s.AvgPowerWatts)
	}
	// Per-type rows fold back to the totals.
	var units, energy float64
	var nodes int
	for _, ts := range s.PerType {
		units += ts.CompletedUnits
		energy += ts.EnergyJoules
		nodes += ts.Nodes
	}
	if nodes != s.Nodes || relErr(units, s.CompletedUnits) > 1e-9 || relErr(energy, s.EnergyJoules) > 1e-9 {
		t.Errorf("per-type rows do not fold to totals: %+v", s.PerType)
	}
}

func TestCompletedMatchesOfferedRate(t *testing.T) {
	// In a clean, under-utilized run the completion integral is exactly
	// utilization * nominal capacity * duration.
	spec := testSpec(t, "x264", 0.4, 90)
	sim, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	nominal := sim.nominalRate
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.4 * nominal * 90
	if e := relErr(res.Summary.CompletedUnits, want); e > 1e-9 {
		t.Errorf("completed = %g, want %g (rel err %g)", res.Summary.CompletedUnits, want, e)
	}
	if e := relErr(res.Summary.OfferedUnits, want); e > 1e-9 {
		t.Errorf("offered = %g, want %g (rel err %g)", res.Summary.OfferedUnits, want, e)
	}
}

func TestOverload(t *testing.T) {
	// Offering 150% of capacity saturates every node and loses the rest.
	spec := testSpec(t, "EP", 1.5, 60)
	res := runSpec(t, spec)
	s := res.Summary
	if s.LostUnits <= 0 {
		t.Fatal("overloaded fleet lost no work")
	}
	if e := relErr(s.LostUnits, s.OfferedUnits/3); e > 1e-9 {
		t.Errorf("lost %g, want one third of offered %g", s.LostUnits, s.OfferedUnits)
	}
	if e := relErr(s.CompletedUnits+s.LostUnits, s.OfferedUnits); e > 1e-9 {
		t.Errorf("conservation violated under overload (rel err %g)", e)
	}
}

func TestUtilizationScalesEnergy(t *testing.T) {
	low := runSpec(t, testSpec(t, "EP", 0.2, 60)).Summary
	high := runSpec(t, testSpec(t, "EP", 0.9, 60)).Summary
	if high.EnergyJoules <= low.EnergyJoules {
		t.Errorf("energy not increasing in utilization: %g at 0.9 vs %g at 0.2",
			high.EnergyJoules, low.EnergyJoules)
	}
	// Busier fleets are more energy proportional: the idle draw
	// amortizes over more work.
	if high.EnergyProportionality <= low.EnergyProportionality {
		t.Errorf("EP ratio not increasing in utilization: %g at 0.9 vs %g at 0.2",
			high.EnergyProportionality, low.EnergyProportionality)
	}
	if high.EnergyProportionality > 1+1e-9 {
		t.Errorf("EP ratio %g above 1", high.EnergyProportionality)
	}
}

func TestSetUtilizationEvent(t *testing.T) {
	spec := testSpec(t, "EP", 0.5, 100)
	spec.Events = []TimedEvent{{
		At: 40, Action: ActionSetUtilization, Target: EveryNode(), Utilization: 0.25,
	}}
	sim, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	nominal := sim.nominalRate
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := nominal * (0.5*40 + 0.25*60)
	if e := relErr(res.Summary.OfferedUnits, want); e > 1e-9 {
		t.Errorf("two-phase offered = %g, want %g (rel err %g)", res.Summary.OfferedUnits, want, e)
	}
	if e := relErr(res.Summary.CompletedUnits, want); e > 1e-9 {
		t.Errorf("two-phase completed = %g, want %g (rel err %g)", res.Summary.CompletedUnits, want, e)
	}
}

func TestSpecValidation(t *testing.T) {
	catalog, registry := testEnv(t)
	a9, _ := catalog.Lookup("A9")
	wl, _ := registry.Lookup("EP")
	base := Spec{
		Workload:    wl,
		Templates:   []cluster.Group{cluster.FullNodes(a9, 2)},
		Duration:    10,
		Utilization: 0.5,
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no workload", func(s *Spec) { s.Workload = nil }},
		{"no templates", func(s *Spec) { s.Templates = nil }},
		{"zero duration", func(s *Spec) { s.Duration = 0 }},
		{"negative utilization", func(s *Spec) { s.Utilization = -1 }},
		{"bad chaos", func(s *Spec) {
			s.Chaos = Chaos{Enabled: true, MTBF: 10} // missing MTTR
		}},
		// Non-finite times the scenario language's bare numbers admit
		// ("nan", "inf"): none has a schedule.
		{"NaN slice", func(s *Spec) { s.Slice = units.Seconds(math.NaN()) }},
		{"infinite mtbf", func(s *Spec) {
			s.Chaos = Chaos{Enabled: true, MTBF: units.Seconds(math.Inf(1)), MTTR: 10}
		}},
		{"NaN mttr", func(s *Spec) {
			s.Chaos = Chaos{Enabled: true, MTBF: 10, MTTR: units.Seconds(math.NaN())}
		}},
		{"NaN throttle duration", func(s *Spec) {
			s.Chaos = Chaos{Enabled: true, ThrottleEvery: 10, ThrottleFor: units.Seconds(math.NaN()), ThrottleFactor: 0.5}
		}},
		{"bad event action", func(s *Spec) {
			s.Events = []TimedEvent{{At: 1, Action: "explode", Target: EveryNode()}}
		}},
		{"event past horizon", func(s *Spec) {
			s.Events = []TimedEvent{{At: 99, Action: ActionFail, Target: EveryNode()}}
		}},
		{"throttle without factor", func(s *Spec) {
			s.Events = []TimedEvent{{At: 1, Action: ActionThrottle, Target: EveryNode()}}
		}},
		{"power cap with both levels", func(s *Spec) {
			s.Events = []TimedEvent{{At: 1, Action: ActionPowerCap, Target: EveryNode(), Watts: 3, Fraction: 0.5}}
		}},
		// Size caps: a node total past MaxNodes, counts whose sum
		// overflows int, and nodes x power samples past maxNodeSamples.
		{"100M nodes", func(s *Spec) { s.Templates = []cluster.Group{cluster.FullNodes(a9, 100_000_000)} }},
		{"one node past the cap", func(s *Spec) {
			s.Templates = []cluster.Group{cluster.FullNodes(a9, MaxNodes/2), cluster.FullNodes(a9, MaxNodes/2+1)}
		}},
		{"overflowing node total", func(s *Spec) {
			s.Templates = []cluster.Group{cluster.FullNodes(a9, 1<<62), cluster.FullNodes(a9, 1<<62)}
		}},
		{"10k nodes at 1ms over 13h", func(s *Spec) {
			s.Templates = []cluster.Group{cluster.FullNodes(a9, 10_000)}
			s.Duration, s.Slice = 13*3600, 0.001
		}},
		{"1M nodes at the default slice over 3h", func(s *Spec) {
			s.Templates = []cluster.Group{cluster.FullNodes(a9, MaxNodes)}
			s.Duration = 3 * 3600
		}},
		{"unsupported node type", func(s *Spec) {
			x, err := catalog.Lookup("XeonE5")
			if err != nil {
				t.Fatal(err)
			}
			narrow := workload.NewProfile("narrow", workload.DomainSynthetic, "u", 100)
			if err := narrow.SetDemand("A9", workload.Demand{CoreCycles: 1e9, Intensity: 1}); err != nil {
				t.Fatal(err)
			}
			s.Workload = narrow
			s.Templates = []cluster.Group{cluster.FullNodes(x, 1)}
		}},
	}
	for _, tc := range cases {
		spec := base
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
		}
	}
	// The caps themselves are admitted, and New fails an overflowing
	// fleet with an error instead of a makeslice panic.
	edge := base
	edge.Templates = []cluster.Group{cluster.FullNodes(a9, MaxNodes/2), cluster.FullNodes(a9, MaxNodes/2)}
	edge.Duration = maxNodeSamples / MaxNodes
	if err := edge.Validate(); err != nil {
		t.Errorf("fleet of exactly MaxNodes nodes and maxNodeSamples node-samples rejected: %v", err)
	}
	huge := base
	huge.Templates = []cluster.Group{cluster.FullNodes(a9, 1<<62), cluster.FullNodes(a9, 1<<62)}
	if _, err := New(huge); err == nil {
		t.Error("New accepted a fleet whose node total overflows int")
	}
}

func TestRunOnlyOnce(t *testing.T) {
	sim, err := New(testSpec(t, "EP", 0.5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Error("second Run succeeded")
	}
}

func TestMetricAccessors(t *testing.T) {
	res := runSpec(t, testSpec(t, "EP", 0.5, 10))
	for _, name := range MetricNames() {
		if _, ok := res.Summary.Metric(name); !ok {
			t.Errorf("MetricNames lists %q but Metric rejects it", name)
		}
	}
	if _, ok := res.Summary.Metric("no_such_metric"); ok {
		t.Error("unknown metric accepted")
	}
	if v, _ := res.Summary.Metric("nodes"); v != 10 {
		t.Errorf("nodes metric = %g, want 10", v)
	}
}

// TestRunTelemetry: with a registry installed, a run adds its event
// count to fleet.events and counts itself in fleet.runs. The fleet runs
// no des engine, so the des.* counters stay at zero.
func TestRunTelemetry(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)

	res := runSpec(t, chaosSpec(t, 7))
	if got, want := reg.Counter("fleet.events").Value(), res.Summary.Events; got != want {
		t.Errorf("fleet.events = %d, want Summary.Events = %d", got, want)
	}
	if got := reg.Counter("fleet.runs").Value(); got != 1 {
		t.Errorf("fleet.runs = %d, want 1", got)
	}
	if got := reg.Counter("des.events_fired").Value(); got != 0 {
		t.Errorf("des.events_fired = %d after a fleet run, want 0", got)
	}
}
