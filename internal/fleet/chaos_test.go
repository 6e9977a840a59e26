package fleet

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestChaosFailuresLoseWorkAtFullLoad(t *testing.T) {
	clean := runSpec(t, testSpec(t, "EP", 1.0, 600)).Summary

	spec := testSpec(t, "EP", 1.0, 600)
	spec.Chaos = Chaos{Enabled: true, MTBF: 300, MTTR: 120}
	chaotic := runSpec(t, spec).Summary

	if chaotic.Failures == 0 {
		t.Fatal("no failures with MTBF twice the horizon over 10 nodes")
	}
	if chaotic.Availability >= 1 {
		t.Errorf("availability %g with %d failures", chaotic.Availability, chaotic.Failures)
	}
	if chaotic.DownNodeSeconds <= 0 {
		t.Error("failures accrued no downtime")
	}
	// At full load there is no spare capacity: every down node-second
	// loses work.
	if chaotic.CompletedUnits >= clean.CompletedUnits {
		t.Errorf("chaos completed %g >= clean %g", chaotic.CompletedUnits, clean.CompletedUnits)
	}
	if chaotic.LostUnits <= 0 {
		t.Error("full-load failures lost no work")
	}
	if e := relErr(chaotic.CompletedUnits+chaotic.LostUnits, chaotic.OfferedUnits); e > 1e-9 {
		t.Errorf("conservation violated under chaos (rel err %g)", e)
	}
}

func TestSurvivorsAbsorbFailuresAtLowLoad(t *testing.T) {
	// At 30% load, killing half the fleet leaves 50% of capacity alive:
	// the survivors absorb the whole offered load and nothing is lost.
	spec := testSpec(t, "EP", 0.3, 200)
	spec.Events = []TimedEvent{{
		At: 50, Action: ActionFail, Target: Target{Node: AllNodes, Fraction: 0.5},
	}}
	res := runSpec(t, spec)
	s := res.Summary
	if s.Failures != 5 {
		t.Fatalf("failures = %d, want 5 (half of 10)", s.Failures)
	}
	if s.LostUnits != 0 {
		t.Errorf("survivors did not absorb the load: lost %g units", s.LostUnits)
	}
	if e := relErr(s.CompletedUnits, s.OfferedUnits); e > 1e-9 {
		t.Errorf("completed %g != offered %g under absorbed failures", s.CompletedUnits, s.OfferedUnits)
	}
	// Energy per unit rises anyway: the dead nodes stop drawing, but the
	// survivors run hotter and the offered load keeps its idle share.
	if s.Availability >= 1 {
		t.Errorf("availability %g after permanent failures", s.Availability)
	}
}

func TestTimedFailWithRevert(t *testing.T) {
	spec := testSpec(t, "EP", 1.0, 300)
	spec.Events = []TimedEvent{{
		At: 100, Action: ActionFail, Target: Target{Node: 0}, For: 50,
	}}
	res := runSpec(t, spec)
	s := res.Summary
	if s.Failures != 1 || s.Repairs != 1 {
		t.Fatalf("failures/repairs = %d/%d, want 1/1", s.Failures, s.Repairs)
	}
	if e := relErr(s.DownNodeSeconds, 50); e > 1e-9 {
		t.Errorf("downtime %g node-seconds, want 50", s.DownNodeSeconds)
	}
	// The chaos log carries both edges in order.
	var kinds []string
	for _, r := range res.ChaosLog {
		if r.Node == 0 {
			kinds = append(kinds, r.Kind)
		}
	}
	if len(kinds) != 2 || kinds[0] != "fail" || kinds[1] != "repair" {
		t.Errorf("chaos log for node 0 = %v, want [fail repair]", kinds)
	}
}

func TestThrottleSlowsFleet(t *testing.T) {
	clean := runSpec(t, testSpec(t, "x264", 1.0, 200)).Summary

	spec := testSpec(t, "x264", 1.0, 200)
	spec.Events = []TimedEvent{{
		At: 0, Action: ActionThrottle, Target: EveryNode(), Factor: 0.5,
	}}
	throttled := runSpec(t, spec).Summary

	if throttled.CompletedUnits >= clean.CompletedUnits {
		t.Errorf("throttled fleet completed %g >= clean %g",
			throttled.CompletedUnits, clean.CompletedUnits)
	}
	// DVFS scaling cuts dynamic power superlinearly, so the throttled
	// fleet draws less.
	if throttled.EnergyJoules >= clean.EnergyJoules {
		t.Errorf("throttled fleet energy %g >= clean %g",
			throttled.EnergyJoules, clean.EnergyJoules)
	}
	if throttled.ThrottleEvents != 10 {
		t.Errorf("throttle events = %d, want 10", throttled.ThrottleEvents)
	}
}

func TestPowerCapLimitsPeakPower(t *testing.T) {
	clean := runSpec(t, testSpec(t, "EP", 1.0, 200)).Summary

	spec := testSpec(t, "EP", 1.0, 200)
	spec.Events = []TimedEvent{{
		At: 0, Action: ActionPowerCap, Target: EveryNode(), Fraction: 0.4,
	}}
	capped := runSpec(t, spec).Summary

	if capped.PeakPowerWatts >= clean.PeakPowerWatts {
		t.Errorf("capped peak %g >= clean peak %g", capped.PeakPowerWatts, clean.PeakPowerWatts)
	}
	if capped.CompletedUnits >= clean.CompletedUnits {
		t.Errorf("capped fleet completed %g >= clean %g",
			capped.CompletedUnits, clean.CompletedUnits)
	}
	if capped.PowerCapEvents != 10 {
		t.Errorf("power cap events = %d, want 10", capped.PowerCapEvents)
	}
	// A cap is a ceiling on the dynamic range but cannot dip below the
	// idle floor without powering the node off: the fleet ceiling is
	// sum of max(idle, cap) = 8*max(1.8, 2) + 2*max(45, 24) = 106 W.
	if capped.PeakPowerWatts > 106+1e-9 {
		t.Errorf("capped peak %g exceeds the max(idle, cap) sum 106 W", capped.PeakPowerWatts)
	}
	// The K10 caps (24 W) sit below the K10 idle draw (45 W), so the
	// brawny side must contribute no work at all.
	for _, ts := range capped.PerType {
		if ts.Type == "K10" && ts.CompletedUnits != 0 {
			t.Errorf("K10 completed %g units under a sub-idle cap", ts.CompletedUnits)
		}
	}
}

func TestStragglersRaiseEnergyPerUnit(t *testing.T) {
	clean := runSpec(t, testSpec(t, "EP", 0.8, 200)).Summary

	spec := testSpec(t, "EP", 0.8, 200)
	spec.Events = []TimedEvent{{
		At: 0, Action: ActionStraggle, Target: EveryNode(), Slowdown: 2,
	}}
	slow := runSpec(t, spec).Summary

	if slow.Stragglers != 10 {
		t.Errorf("stragglers = %d, want 10", slow.Stragglers)
	}
	if slow.EnergyPerUnitJoules <= clean.EnergyPerUnitJoules {
		t.Errorf("straggler energy/unit %g <= clean %g",
			slow.EnergyPerUnitJoules, clean.EnergyPerUnitJoules)
	}
}

func TestTargetSelection(t *testing.T) {
	// Kill only the K10s (template order: 8 A9 then 2 K10).
	spec := testSpec(t, "EP", 0.5, 100)
	spec.Events = []TimedEvent{{
		At: 10, Action: ActionFail, Target: Target{Type: "K10", Node: AllNodes},
	}}
	s := runSpec(t, spec).Summary
	if s.Failures != 2 {
		t.Fatalf("failures = %d, want the 2 K10 nodes", s.Failures)
	}
	for _, ts := range s.PerType {
		switch ts.Type {
		case "A9":
			if ts.Failures != 0 {
				t.Errorf("A9 failures = %d, want 0", ts.Failures)
			}
		case "K10":
			if ts.Failures != 2 {
				t.Errorf("K10 failures = %d, want 2", ts.Failures)
			}
			if ts.DownNodeSeconds <= 0 {
				t.Error("failed K10s accrued no downtime")
			}
		}
	}

	// Count targeting picks the lowest indices.
	spec2 := testSpec(t, "EP", 0.5, 100)
	spec2.Events = []TimedEvent{{
		At: 10, Action: ActionFail, Target: Target{Node: AllNodes, Count: 3},
	}}
	res2 := runSpec(t, spec2)
	if res2.Summary.Failures != 3 {
		t.Fatalf("failures = %d, want 3", res2.Summary.Failures)
	}
	for _, r := range res2.ChaosLog {
		if r.Kind == "fail" && r.Node > 2 {
			t.Errorf("count target failed node %d, want indices 0-2", r.Node)
		}
	}
}

func TestChaosBackgroundThrottleAndCaps(t *testing.T) {
	spec := testSpec(t, "EP", 0.7, 600)
	spec.Chaos = Chaos{
		Enabled:           true,
		ThrottleEvery:     200,
		ThrottleFor:       50,
		ThrottleFactor:    0.5,
		CapEvery:          200,
		CapFor:            50,
		CapFraction:       0.6,
		StragglerProb:     0.3,
		StragglerSlowdown: 1.5,
	}
	s := runSpec(t, spec).Summary
	if s.ThrottleEvents == 0 {
		t.Error("no background throttle events over 10 nodes x 600 s")
	}
	if s.PowerCapEvents == 0 {
		t.Error("no background power cap events")
	}
	if s.Stragglers == 0 {
		t.Error("no stragglers at prob 0.3 over 10 nodes")
	}
	if e := relErr(s.CompletedUnits+s.LostUnits, s.OfferedUnits); e > 1e-9 {
		t.Errorf("conservation violated under mixed chaos (rel err %g)", e)
	}
}

func TestPowerSampleTrace(t *testing.T) {
	spec := testSpec(t, "EP", 0.5, 60)
	spec.Slice = units.Seconds(2)
	res := runSpec(t, spec)
	if len(res.PowerTrace) < 30 {
		t.Fatalf("power trace has %d samples, want >= 30", len(res.PowerTrace))
	}
	last := -1.0
	for _, p := range res.PowerTrace {
		if p.Time <= last {
			t.Fatal("power trace not strictly time-ordered")
		}
		last = p.Time
		if p.Power <= 0 || p.Alive != 10 {
			t.Fatalf("degenerate sample %+v", p)
		}
	}
}

// TestFailEveryNode: failing the whole fleet leaves the alive capacity
// exactly 0 and no node up. After every event the capacity tree's root
// equals a fresh pairwise rebuild over the nodes' current capacities,
// so its incremental updates carry no history.
func TestFailEveryNode(t *testing.T) {
	spec := chaosSpec(t, 3)
	spec.Templates[0].Count, spec.Templates[1].Count = 37, 6
	spec.Chaos.MTBF = 0 // no background repair brings a node back
	spec.Events = []TimedEvent{
		{At: 100, Action: ActionFail, Target: Target{Node: AllNodes, Fraction: 0.5}, For: 150},
		{At: 450, Action: ActionFail, Target: EveryNode()},
	}
	sim, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	sim.start()
	for len(sim.cal.q) > 0 {
		sim.step()
		alive := 0
		for i := range sim.nodes {
			if !sim.nodes[i].failed {
				alive++
			}
		}
		fresh := newCapTree(len(sim.nodes), func(i int) float64 { return sim.nodes[i].capacity() })
		got, want := sim.capacity.sum(), fresh.sum()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("t=%g: capacity root %v, fresh rebuild %v", sim.now, got, want)
		}
		if sim.alive != alive {
			t.Fatalf("t=%g: alive count %d, %d nodes up", sim.now, sim.alive, alive)
		}
		if sim.now >= 450 && (got != 0 || sim.alive != 0 || sim.lostRate != sim.offeredRate) {
			t.Fatalf("t=%g after failing every node: capacity %v, %d alive, lost %v of %v units/s",
				sim.now, got, sim.alive, sim.lostRate, sim.offeredRate)
		}
	}
	if sim.now < 450 {
		t.Fatalf("run ended at t=%g, before the whole fleet failed", sim.now)
	}
}

// TestBriefLateUptimeMatchesReference: the only K10 is up for half a
// second near the end of a two-day run, so its books hold one ΔG of
// ~0.35 taken from a G of ~1.7e5. A plain running sum of G rounds that
// difference to within an ulp of G, 1.7e-11 of the node's work; the
// compensated integral keeps it within the oracle's bound.
func TestBriefLateUptimeMatchesReference(t *testing.T) {
	spec := testSpec(t, "EP", 0.7, 2*86400)
	spec.Slice = 3600
	spec.Templates[1].Count = 1
	k10 := Target{Node: 8}
	spec.Events = []TimedEvent{
		{At: 0, Action: ActionFail, Target: k10},
		{At: 172000, Action: ActionRepair, Target: k10},
		{At: 172000.5, Action: ActionFail, Target: k10},
	}
	CheckReference(t, spec)
}
