package fleet

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/units"
	"repro/internal/workload"
)

// fuzzActions are the timed-event actions FuzzFleetRun draws from.
var fuzzActions = []Action{
	ActionFail, ActionRepair, ActionThrottle, ActionUnthrottle,
	ActionPowerCap, ActionUncap, ActionStraggle, ActionUnstraggle,
	ActionSetUtilization,
}

// FuzzFleetRun runs small fleets over fuzzed seeds, loads, slices, fleet
// sizes, chaos rates and one timed event. Every parameter is decoded
// into its valid range, so each input is a runnable spec. The run must
// not panic, must agree with the serial oracle and conserve work
// (CheckReference), and must marshal the same summary bytes when run
// again.
func FuzzFleetRun(f *testing.F) {
	catalog := hardware.DefaultCatalog()
	registry, err := workload.PaperRegistry(catalog)
	if err != nil {
		f.Fatal(err)
	}
	a9, err := catalog.Lookup("A9")
	if err != nil {
		f.Fatal(err)
	}
	k10, err := catalog.Lookup("K10")
	if err != nil {
		f.Fatal(err)
	}
	wl, err := registry.Lookup("EP")
	if err != nil {
		f.Fatal(err)
	}

	// seed, util%, slice code, nodes, mtbf, mttr, throttle every/for/
	// factor%, cap every/for/fraction%, action, at, for.
	f.Add(uint64(1), uint8(70), uint8(3), uint8(10), uint16(400), uint16(100),
		uint16(300), uint16(60), uint8(50), uint16(500), uint16(80), uint8(90),
		uint8(0), uint16(200), uint16(100))
	f.Add(uint64(42), uint8(120), uint8(0), uint8(63), uint16(30), uint16(20),
		uint16(45), uint16(10), uint8(10), uint16(60), uint16(30), uint8(1),
		uint8(4), uint16(100), uint16(250))
	f.Add(uint64(7), uint8(0), uint8(40), uint8(0), uint16(0), uint16(0),
		uint16(0), uint16(0), uint8(0), uint16(0), uint16(0), uint8(0),
		uint8(8), uint16(600), uint16(0))
	f.Add(uint64(9), uint8(255), uint8(1), uint8(5), uint16(1), uint16(1),
		uint16(1), uint16(1), uint8(98), uint16(1), uint16(1), uint8(99),
		uint8(6), uint16(0), uint16(599))

	f.Fuzz(func(t *testing.T, seed uint64, util, sliceCode, nodes uint8,
		mtbf, mttr, thrEvery, thrFor uint16, thrFactor uint8,
		capEvery, capFor uint16, capFrac uint8,
		action uint8, at, forS uint16) {
		const horizon = 600
		n := int(nodes%64) + 1
		templates := []cluster.Group{cluster.FullNodes(a9, n-n/4)}
		if n/4 > 0 {
			templates = append(templates, cluster.FullNodes(k10, n/4))
		}
		spec := Spec{
			Name:        "fuzz",
			Workload:    wl,
			Templates:   templates,
			Duration:    horizon,
			Slice:       units.Seconds(float64(sliceCode%64+1) / 4),
			Utilization: float64(util) / 100,
			Seed:        seed,
			Chaos: Chaos{
				Enabled:           true,
				MTBF:              units.Seconds(mtbf),
				MTTR:              units.Seconds(mttr) + 1,
				ThrottleEvery:     units.Seconds(thrEvery),
				ThrottleFor:       units.Seconds(thrFor%600) + 1,
				ThrottleFactor:    float64(thrFactor%99+1) / 100,
				CapEvery:          units.Seconds(capEvery),
				CapFor:            units.Seconds(capFor%600) + 1,
				CapFraction:       float64(capFrac%100+1) / 100, // low fractions cap below idle
				StragglerProb:     float64(seed%5) / 10,
				StragglerSlowdown: 1.5,
			},
		}
		ev := TimedEvent{
			At:          units.Seconds(at % (horizon + 1)),
			Action:      fuzzActions[int(action)%len(fuzzActions)],
			Target:      Target{Node: AllNodes, Fraction: 0.5},
			Factor:      0.5,
			Slowdown:    2,
			Fraction:    0.05,
			Utilization: float64(util%50) / 25,
		}
		if ev.Action != ActionSetUtilization {
			ev.For = units.Seconds(forS % 300)
		}
		spec.Events = []TimedEvent{ev}

		res, _ := CheckReference(t, spec)
		first, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(runSpec(t, spec).Summary)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("same spec, different summaries:\n%s\n%s", first, second)
		}
	})
}
