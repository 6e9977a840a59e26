package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/units"
	"repro/internal/workload"
)

func chaosSpec(t *testing.T, seed uint64) Spec {
	t.Helper()
	spec := testSpec(t, "EP", 0.8, 600)
	spec.Seed = seed
	spec.Chaos = Chaos{
		Enabled:           true,
		MTBF:              400,
		MTTR:              100,
		ThrottleEvery:     300,
		ThrottleFor:       60,
		ThrottleFactor:    0.5,
		CapEvery:          500,
		CapFor:            80,
		CapFraction:       0.9,
		StragglerProb:     0.2,
		StragglerSlowdown: 1.8,
	}
	spec.Events = []TimedEvent{
		{At: 200, Action: ActionFail, Target: Target{Node: AllNodes, Fraction: 0.2}, For: 100},
		{At: 450, Action: ActionSetUtilization, Target: EveryNode(), Utilization: 0.4},
	}
	return spec
}

// TestSeedReproducibility is the determinism contract: the same
// scenario and seed produce a bitwise-identical summary (and chaos
// log); a different seed produces a different chaos event stream.
func TestSeedReproducibility(t *testing.T) {
	marshal := func(seed uint64) ([]byte, []ChaosRecord) {
		res := runSpec(t, chaosSpec(t, seed))
		b, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		return b, res.ChaosLog
	}

	b1, log1 := marshal(7)
	b2, log2 := marshal(7)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same seed, different summaries:\n%s\n%s", b1, b2)
	}
	if len(log1) != len(log2) {
		t.Fatalf("same seed, different chaos log lengths: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("same seed, chaos logs diverge at %d: %+v vs %+v", i, log1[i], log2[i])
		}
	}

	b3, log3 := marshal(8)
	if bytes.Equal(b1, b3) {
		t.Error("different seeds produced identical summaries")
	}
	same := len(log1) == len(log3)
	if same {
		for i := range log1 {
			if log1[i] != log3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical chaos event streams")
	}
}

// TestSeedReproducibilityAtScale runs a four-type, 1200-node fleet with
// chaos twice and requires byte-identical summaries — the shared-clock
// loop stays deterministic when thousands of engines interleave.
func TestSeedReproducibilityAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("1200-node fleet in -short mode")
	}
	catalog, _ := testEnv(t)
	// The paper workloads carry demands for A9 and K10 only; a synthetic
	// profile covers the whole catalog so the fleet can mix all four
	// types.
	profiles, err := workload.Generate(catalog, workload.DefaultSyntheticSpec(), 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	wl := profiles[0]
	var templates []cluster.Group
	for _, tc := range []struct {
		name  string
		count int
	}{{"A9", 800}, {"A15", 200}, {"K10", 150}, {"XeonE5", 50}} {
		nt, err := catalog.Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		templates = append(templates, cluster.FullNodes(nt, tc.count))
	}
	spec := Spec{
		Name:        "scale",
		Workload:    wl,
		Templates:   templates,
		Duration:    120,
		Slice:       units.Seconds(5),
		Utilization: 0.7,
		Seed:        42,
		Chaos: Chaos{
			Enabled: true,
			MTBF:    1800, MTTR: 300,
			ThrottleEvery: 2400, ThrottleFor: 120, ThrottleFactor: 0.6,
			StragglerProb: 0.05, StragglerSlowdown: 2,
		},
	}

	run := func() ([]byte, *Result) {
		sim, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		return b, res
	}
	b1, res := run()
	b2, _ := run()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("1200-node run not reproducible:\n%s\n%s", b1, b2)
	}
	s1 := res.Summary
	if s1.Nodes != 1200 {
		t.Fatalf("nodes = %d, want 1200", s1.Nodes)
	}
	// Every power sample and every chaos episode that changed a node is
	// a calendar event; episodes that found their node already in the
	// target state, and throttle clears, add to the count.
	floor := uint64(len(res.PowerTrace) + s1.Failures + s1.Repairs + s1.ThrottleEvents + s1.PowerCapEvents)
	if s1.Events < floor {
		t.Errorf("only %d events across 1200 nodes, want at least %d", s1.Events, floor)
	}
	if s1.Failures == 0 && s1.Stragglers == 0 {
		t.Error("chaos produced nothing across 1200 nodes")
	}
	if e := relErr(s1.CompletedUnits+s1.LostUnits, s1.OfferedUnits); e > 1e-9 {
		t.Errorf("conservation violated at scale (rel err %g)", e)
	}
}
