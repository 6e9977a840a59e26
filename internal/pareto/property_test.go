package pareto

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// randomSpace builds a randomized small limit set over the default
// catalog (1-3 types, small node counts, random core/frequency
// restrictions) and a synthetic workload whose demand vectors cover a
// random subset of those types — sometimes leaving a type without a
// demand so the skip path is exercised.
func randomSpace(t testing.TB, rng *stats.RNG) ([]cluster.Limit, *workload.Profile) {
	t.Helper()
	cat := hardware.DefaultCatalog()
	names := cat.Names()
	// Shuffle and take a random prefix of 1-3 types.
	for i := len(names) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		names[i], names[j] = names[j], names[i]
	}
	k := 1 + rng.Intn(3)
	if k > len(names) {
		k = len(names)
	}
	names = names[:k]

	limits := make([]cluster.Limit, 0, k)
	wl := workload.NewProfile(fmt.Sprintf("prop-%d", rng.Intn(1<<30)),
		workload.DomainSynthetic, "units", 1e5+rng.Float64()*1e7)
	for _, name := range names {
		nt, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		l := cluster.Limit{Type: nt, MaxNodes: 1 + rng.Intn(4)}
		switch rng.Intn(3) {
		case 0:
			l.FixCoresAndFreq = true
		case 1:
			l.MaxCores = 1 + rng.Intn(nt.Cores)
			if n := len(nt.Freq.Steps); n > 1 && rng.Intn(2) == 0 {
				l.Freqs = nt.Freq.Steps[:1+rng.Intn(n)]
			}
		}
		limits = append(limits, l)
		// ~1 in 6 types stays without a demand vector: those
		// configurations must be skipped identically on both paths.
		if rng.Intn(6) == 0 {
			continue
		}
		d := workload.Demand{
			CoreCycles: units.Cycles(1e8 * (0.1 + rng.Float64())),
			MemCycles:  units.Cycles(1e8 * rng.Float64()),
			IOBytes:    units.Bytes(1e4 * rng.Float64()),
			Intensity:  0.5 + rng.Float64(),
		}
		if rng.Intn(3) == 0 {
			d.IOReqs = rng.Float64() * 10
		}
		if err := wl.SetDemand(name, d); err != nil {
			t.Fatal(err)
		}
	}
	if rng.Intn(4) == 0 {
		wl.IORate = units.PerSecond(1 + rng.Float64()*1e4)
	}
	return limits, wl
}

// frontiersEqual asserts point-for-point equality: config identity and
// exact scalars, not approximate agreement.
func frontiersEqual(t *testing.T, label string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: frontier size %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Config.Key() != want[i].Config.Key() {
			t.Fatalf("%s: point %d is %s, want %s", label, i, got[i].Config, want[i].Config)
		}
		if got[i].Time != want[i].Time || got[i].Energy != want[i].Energy {
			t.Fatalf("%s: point %d scalars (%v,%v), want (%v,%v)",
				label, i, got[i].Time, got[i].Energy, want[i].Time, want[i].Energy)
		}
	}
}

// TestFastSweepPropertyRandomSpaces: on randomized small spaces, the
// fast engine (with and without the reduction, with and without a
// peak-power budget)
// returns exactly the frontier of evaluating the enumerated space
// through the reference model — config identity included.
func TestFastSweepPropertyRandomSpaces(t *testing.T) {
	iterations := 60
	if testing.Short() {
		iterations = 15
	}
	for iter := 0; iter < iterations; iter++ {
		rng := stats.NewRNG(0x9E3779B97F4A7C15 + uint64(iter))
		limits, wl := randomSpace(t, rng)
		label := fmt.Sprintf("iter %d (%s, %d types, space %d)",
			iter, wl.Name, len(limits), cluster.SpaceSize(limits))

		configs, err := cluster.EnumerateAll(limits)
		if err != nil {
			t.Fatal(err)
		}
		want := Frontier(evaluateAll(configs, wl))

		fast, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		frontiersEqual(t, label+" pruned", fast, want)

		noPrune, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{NoPrune: true})
		if err != nil {
			t.Fatal(err)
		}
		frontiersEqual(t, label+" noprune", noPrune, want)

		// Under a peak-power budget: the reference is the frontier of
		// the in-budget evaluation.
		budget := &cluster.PowerBudget{Cap: units.Watts(50 + rng.Float64()*400)}
		kept := configs[:0:0]
		for _, cfg := range configs {
			if budget.Fits(cfg) {
				kept = append(kept, cfg)
			}
		}
		wantFiltered := Frontier(evaluateAll(kept, wl))
		fastFiltered, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		frontiersEqual(t, label+" filtered", fastFiltered, wantFiltered)

		// Frontier survivors carry a materialized Result consistent
		// with their scalars.
		for _, p := range fast {
			if p.Result.Time != p.Time || p.Result.Energy != p.Energy {
				t.Fatalf("%s: materialized Result (%v,%v) != point (%v,%v) for %s",
					label, p.Result.Time, p.Result.Energy, p.Time, p.Energy, p.Config)
			}
			if len(p.Result.Groups) == 0 {
				t.Fatalf("%s: frontier point %s has no per-group breakdown", label, p.Config)
			}
		}
	}
}
