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

// Metamorphic relations of the frontier engine over randomized spaces
// (randomSpace limits and workloads, not only the paper's six): each
// transformed sweep through the fast engine is checked against the
// reference sweep of the untransformed space.

// metamorphicIterations is how many random spaces each relation sees.
func metamorphicIterations() int {
	if testing.Short() {
		return 12
	}
	return 40
}

// referenceSweep is the reference frontier of (limits, wl), optionally
// under a budget.
func referenceSweep(t *testing.T, limits []cluster.Limit, wl *workload.Profile, b *cluster.PowerBudget) []Point {
	t.Helper()
	ref, err := frontierSweepReference(limits, wl, model.Options{}, SweepOptions{Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// fastSweep is the fast engine's frontier and accounting of (limits,
// wl), optionally under a budget.
func fastSweep(t *testing.T, limits []cluster.Limit, wl *workload.Profile, b *cluster.PowerBudget) ([]Point, SweepStats) {
	t.Helper()
	var st SweepStats
	front, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{Budget: b, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	return front, st
}

// TestFrontierMetamorphicTypeOrder: permuting the node-type order of
// the limits gives the same frontier — configurations are canonical
// and the model sums groups in type-name order whatever the limit
// order.
func TestFrontierMetamorphicTypeOrder(t *testing.T) {
	for iter := range metamorphicIterations() {
		rng := stats.NewRNG(0x5EED0001 + uint64(iter))
		limits, wl := randomSpace(t, rng)
		perm := append([]cluster.Limit(nil), limits...)
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		got, _ := fastSweep(t, perm, wl, nil)
		frontiersBitIdentical(t, fmt.Sprintf("iter %d permuted", iter), got, referenceSweep(t, limits, wl, nil))
	}
}

// TestFrontierMetamorphicDominatedPoint: adding operating points that
// another point of the same type dominates leaves the frontier as it
// was. The construction makes one type NIC-bound with no memory
// cycles, so every (cores, frequency) point has the same unit time and
// a higher frequency only raises CPU power (the DVFS exponent exceeds
// 1): extending a restricted frequency list by its next step adds only
// points the lower steps dominate, with the same node count and rate
// and a higher energy.
func TestFrontierMetamorphicDominatedPoint(t *testing.T) {
	for iter := range metamorphicIterations() {
		rng := stats.NewRNG(0x5EED0002 + uint64(iter))
		limits, wl := randomSpace(t, rng)
		i := rng.Intn(len(limits))
		nt := limits[i].Type
		steps := nt.Freq.Steps
		m := 1 + rng.Intn(len(steps)-1)
		limits[i].FixCoresAndFreq = false
		limits[i].MaxCores = 1 + rng.Intn(min(nt.Cores, 4))
		limits[i].Freqs = steps[:m]
		// Core time at one core and the lowest step bounds every point's
		// CPU time; the NIC time is set above it.
		cc := 1e8 * (0.1 + rng.Float64())
		slowest := cc / float64(steps[0])
		io := units.Bytes(2 * slowest * float64(nt.NICBandwidth) * (1 + rng.Float64()))
		if err := wl.SetDemand(nt.Name, workload.Demand{CoreCycles: units.Cycles(cc), IOBytes: io, Intensity: 0.5 + rng.Float64()}); err != nil {
			t.Fatal(err)
		}
		want := referenceSweep(t, limits, wl, nil)

		ext := append([]cluster.Limit(nil), limits...)
		ext[i].Freqs = steps[:m+1]
		label := fmt.Sprintf("iter %d (%s %v -> %v)", iter, nt.Name, limits[i].Freqs, ext[i].Freqs)
		// The premise: the added points change the reference frontier
		// no more than they may change the fast one.
		frontiersBitIdentical(t, label+" reference premise", referenceSweep(t, ext, wl, nil), want)
		got, _ := fastSweep(t, ext, wl, nil)
		frontiersBitIdentical(t, label, got, want)
	}
}

// TestFrontierMetamorphicDemandScaling: doubling every service demand
// doubles every unit time exactly (a power of two scales without
// rounding), so the frontier keeps its configurations with every time
// and energy exactly doubled.
func TestFrontierMetamorphicDemandScaling(t *testing.T) {
	for iter := range metamorphicIterations() {
		rng := stats.NewRNG(0x5EED0003 + uint64(iter))
		limits, wl := randomSpace(t, rng)
		doubled := workload.NewProfile(wl.Name+"-x2", wl.Domain, wl.Unit, wl.JobUnits)
		doubled.IORate = wl.IORate
		for _, l := range limits {
			d, err := wl.Demand(l.Type.Name)
			if err != nil {
				continue // the type stays unsupported
			}
			d.CoreCycles, d.MemCycles, d.IOBytes, d.IOReqs = 2*d.CoreCycles, 2*d.MemCycles, 2*d.IOBytes, 2*d.IOReqs
			if err := doubled.SetDemand(l.Type.Name, d); err != nil {
				t.Fatal(err)
			}
		}
		want := referenceSweep(t, limits, wl, nil)
		got, _ := fastSweep(t, limits, doubled, nil)
		label := fmt.Sprintf("iter %d doubled demand", iter)
		if len(got) != len(want) {
			t.Fatalf("%s: frontier size %d, want %d", label, len(got), len(want))
		}
		for k := range want {
			if got[k].Config.Key() != want[k].Config.Key() {
				t.Fatalf("%s: point %d is %s, want %s", label, k, got[k].Config, want[k].Config)
			}
			if got[k].Time != 2*want[k].Time || got[k].Energy != 2*want[k].Energy {
				t.Fatalf("%s: point %d (%v, %v), want exactly twice (%v, %v)",
					label, k, got[k].Time, got[k].Energy, want[k].Time, want[k].Energy)
			}
		}
	}
}

// TestFrontierMetamorphicSlackBudget: a budget whose cap is the peak of
// the largest configuration rejects nothing, so the sweep equals the
// unbudgeted one — frontier and accounting alike.
func TestFrontierMetamorphicSlackBudget(t *testing.T) {
	for iter := range metamorphicIterations() {
		rng := stats.NewRNG(0x5EED0004 + uint64(iter))
		limits, wl := randomSpace(t, rng)
		b := &cluster.PowerBudget{Switched: limits[0].Type.Name, Switch: hardware.DefaultSwitch()}
		var full []cluster.Group
		for _, l := range limits {
			full = append(full, cluster.FullNodes(l.Type, l.MaxNodes))
		}
		b.Cap = b.Peak(cluster.MustConfig(full...))
		label := fmt.Sprintf("iter %d cap %v", iter, b.Cap)
		got, st := fastSweep(t, limits, wl, b)
		frontiersBitIdentical(t, label, got, referenceSweep(t, limits, wl, nil))
		_, plain := fastSweep(t, limits, wl, nil)
		if st != plain || st.Filtered != 0 {
			t.Fatalf("%s: stats %+v, unbudgeted %+v", label, st, plain)
		}
	}
}

// TestFrontierStaircaseMembership: every group of every reference
// frontier point, with and without a random budget, is one of its
// type's staircase choices — the property the reduction rests on.
func TestFrontierStaircaseMembership(t *testing.T) {
	for iter := range metamorphicIterations() {
		rng := stats.NewRNG(0x5EED0005 + uint64(iter))
		limits, wl := randomSpace(t, rng)
		budget := &cluster.PowerBudget{Cap: units.Watts(50 + rng.Float64()*400)}
		for _, b := range []*cluster.PowerBudget{nil, budget} {
			on := map[cluster.Group]bool{}
			for _, g := range walkedGroups(buildSpace(limits, wl, b, true)) {
				on[g] = true
			}
			for _, p := range referenceSweep(t, limits, wl, b) {
				for _, g := range p.Config.Groups {
					if !on[g] {
						t.Fatalf("iter %d budget %v: frontier point %s holds %d %s (%dc@%v), off its staircase",
							iter, b != nil, p.Config, g.Count, g.Type.Name, g.Cores, g.Freq)
					}
				}
			}
		}
	}
}

// TestFrontierStaircaseCostDimension: under a budget a choice survives
// when every choice that beats it on rate and p costs more. The node
// type's dynamic power scales with frequency^4 and dominates its draw,
// so two nodes at 0.8 GHz beat one node at 1 GHz on rate (1.6 vs 1)
// and on p (82 vs 100); a 150 W cap admits one node only, and the
// frontier must keep the 1 GHz node, the fastest configuration in
// budget.
func TestFrontierStaircaseCostDimension(t *testing.T) {
	x := &hardware.NodeType{Name: "X", Cores: 1,
		Freq:         hardware.DVFS{Steps: []units.Hertz{0.8 * units.GHz, 1 * units.GHz}, DynamicExponent: 4},
		NICBandwidth: 1e9, Power: hardware.PowerParams{CPUActPerCore: 100, Idle: 0.01}, NominalPeak: 100}
	wl := workload.NewProfile("steep", workload.DomainSynthetic, "units", 1e3)
	if err := wl.SetDemand("X", workload.Demand{CoreCycles: 1e9, Intensity: 1}); err != nil {
		t.Fatal(err)
	}
	limits := []cluster.Limit{{Type: x, MaxNodes: 2}}
	b := &cluster.PowerBudget{Cap: 150}
	want := referenceSweep(t, limits, wl, b)
	if len(want) != 2 || want[0].Config.String() != "1 X" {
		t.Fatalf("reference frontier %v, want 1 X then 1 X at 0.8 GHz", want)
	}
	got, _ := fastSweep(t, limits, wl, b)
	frontiersBitIdentical(t, "cost dimension", got, want)
}

// TestFastSweepUnrunnableAccounting: configurations the model cannot
// run are counted as the reference sweep counts them — over the budget
// as filtered, the rest as skipped — both when the profile is invalid
// and when a node type's unit time overflows float64 (zero rate: alone
// it cannot run, beside a positive-rate group it runs with no share of
// the work).
func TestFastSweepUnrunnableAccounting(t *testing.T) {
	limits := paperLimits(t, 4, 2, true)
	invalid := workload.NewProfile("empty", workload.DomainSynthetic, "units", 1e6)
	slowNIC := *limits[1].Type
	slowNIC.NICBandwidth = 1e-300
	zeroRate := workload.NewProfile("zero-rate", workload.DomainSynthetic, "units", 1e6)
	for name, d := range map[string]workload.Demand{
		"A9":  {CoreCycles: 1e8, Intensity: 1},
		"K10": {CoreCycles: 1e8, IOBytes: 1e10, Intensity: 1},
	} {
		if err := zeroRate.SetDemand(name, d); err != nil {
			t.Fatal(err)
		}
	}
	withZero := []cluster.Limit{limits[0], {Type: &slowNIC, MaxNodes: 2}}
	for _, tc := range []struct {
		label  string
		limits []cluster.Limit
		wl     *workload.Profile
	}{{"invalid profile", limits, invalid}, {"zero-rate type", withZero, zeroRate}} {
		for _, b := range []*cluster.PowerBudget{nil, {Cap: 100, Switched: "A9", Switch: hardware.DefaultSwitch()}} {
			for _, noPrune := range []bool{false, true} {
				var st, ref SweepStats
				if _, err := FrontierSweep(tc.limits, tc.wl, model.Options{}, SweepOptions{Budget: b, NoPrune: noPrune, Stats: &st}); err != nil {
					t.Fatal(err)
				}
				if _, err := frontierSweepReference(tc.limits, tc.wl, model.Options{}, SweepOptions{Budget: b, Stats: &ref}); err != nil {
					t.Fatal(err)
				}
				if st.Evaluated+st.Pruned != ref.Evaluated || st.Skipped != ref.Skipped || st.Filtered != ref.Filtered ||
					noPrune && st.Pruned != 0 || ref.Skipped == 0 {
					t.Fatalf("%s budget %v noprune %v: stats %+v, reference %+v", tc.label, b != nil, noPrune, st, ref)
				}
			}
		}
	}
}

// buildSpace builds the walked space of limits on a fresh table, as a
// sweep on a table of its own does.
func buildSpace(limits []cluster.Limit, wl *workload.Profile, b *cluster.PowerBudget, reduce bool) *spaceSoA {
	return new(spaceBuilder).build(limits, model.NewTable(wl, model.Options{}), b, reduce)
}

// walkedGroups returns the walked choices of sp, in column order.
func walkedGroups(sp *spaceSoA) []cluster.Group {
	out := make([]cluster.Group, sp.typeOff[sp.nTypes])
	for j := range out {
		out[j] = sp.group(int32(j))
	}
	return out
}

// undominated is the reduction's definition checked choice against
// choice, quadratically: the supported positive-rate choices of each
// type of an unreduced build that no other choice of the type
// dominates (faster by more than the slack or in the same equal-time
// class, cheaper in p by more than the slack, and, under a budget, no
// larger in either share).
func undominated(limits []cluster.Limit, wl *workload.Profile, b *cluster.PowerBudget) []cluster.Group {
	full := buildSpace(limits, wl, b, false)
	p := func(j int32) float64 { return full.rate[j] * full.calcs[j].EnergyPerUnit }
	var rMax, pMax float64
	for i := range full.nTypes {
		var r, pm float64
		for j := full.typeOff[i]; j < full.typeOff[i+1]; j++ {
			r, pm = max(r, full.rate[j]), max(pm, p(j))
		}
		rMax, pMax = rMax+r, pMax+pm
	}
	dR, dP := domSlack*rMax, domSlack*pMax
	var out []cluster.Group
	for i := range full.nTypes {
		lo, hi := full.typeOff[i], full.typeOff[i+1]
		for a := lo; a < hi; a++ {
			if !(full.rate[a] > 0) {
				continue
			}
			dominated := false
			for c := lo; c < hi; c++ {
				sameTime := full.count[c] == full.count[a] && full.calcs[c].UnitTotal == full.calcs[a].UnitTotal
				if full.rate[c] > 0 && (full.rate[c]-full.rate[a] > dR || sameTime) && p(a)-p(c) > dP &&
					full.nodesW[c] <= full.nodesW[a] && full.switchW[c] <= full.switchW[a] {
					dominated = true
					break
				}
			}
			if !dominated {
				out = append(out, full.group(a))
			}
		}
	}
	return out
}

// TestFrontierStaircaseUndominatedSet: the reduction keeps exactly the
// undominated choices, in enumeration order, on random spaces with and
// without a budget (switches on a random type), and on the paper's
// DVFS space with and without the paper's budget at 1 kW.
func TestFrontierStaircaseUndominatedSet(t *testing.T) {
	check := func(label string, limits []cluster.Limit, wl *workload.Profile, b *cluster.PowerBudget) {
		t.Helper()
		got, want := walkedGroups(buildSpace(limits, wl, b, true)), undominated(limits, wl, b)
		if len(got) != len(want) {
			t.Fatalf("%s: kept %d choices, want %d", label, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: choice %d is %+v, want %+v", label, k, got[k], want[k])
			}
		}
	}
	for iter := range metamorphicIterations() {
		rng := stats.NewRNG(0x5EED0006 + uint64(iter))
		limits, wl := randomSpace(t, rng)
		budget := &cluster.PowerBudget{Cap: units.Watts(50 + rng.Float64()*400),
			Switched: limits[rng.Intn(len(limits))].Type.Name, Switch: hardware.DefaultSwitch()}
		for _, b := range []*cluster.PowerBudget{nil, budget} {
			check(fmt.Sprintf("iter %d budget %v", iter, b != nil), limits, wl, b)
		}
	}
	limits := paperLimits(t, 10, 10, true)
	paper := &cluster.PowerBudget{Cap: 1000, Switched: "A9", Switch: hardware.DefaultSwitch()}
	for _, wl := range paperWorkloads(t) {
		for _, b := range []*cluster.PowerBudget{nil, paper} {
			check(fmt.Sprintf("%s budget %v", wl.Name, b != nil), limits, wl, b)
		}
	}
}

// TestFrontierStaircaseSizes pins the per-type staircases of the
// paper's 10x10 DVFS space (DESIGN.md §16): kept A9/K10 choices and the
// configurations the walk visits, of 36,380.
func TestFrontierStaircaseSizes(t *testing.T) {
	want := map[string][3]int32{
		workload.NameEP: {28, 30, 898}, "memcached": {43, 31, 1407}, workload.NameX264: {35, 28, 1043},
		"blackscholes": {28, 30, 898}, "Julius": {32, 30, 1022}, "RSA-2048": {29, 32, 989},
	}
	limits := paperLimits(t, 10, 10, true)
	for _, wl := range paperWorkloads(t) {
		sp := buildSpace(limits, wl, nil, true)
		a9, k10 := sp.typeOff[1]-sp.typeOff[0], sp.typeOff[2]-sp.typeOff[1]
		if got := [3]int32{a9, k10, (1+a9)*(1+k10) - 1}; got != want[wl.Name] {
			t.Errorf("%s: kept A9/K10 and walked %v, want %v", wl.Name, got, want[wl.Name])
		}
	}
}

// TestFrontierStaircaseFallingShare: a type whose rated peak is
// negative (meaningless, but not rejected) has a budget share that
// falls as nodes are added, so a choice with fewer nodes may cost more
// than one with more. One fast X node beats two slow ones on rate (2.4
// vs 2) and p (80 vs ~102 W) but costs more, and under the cap only
// two X nodes fit beside the fast, frugal Y; there two slow X nodes
// draw less than two fast ones, so Y with them is on the frontier. The
// type keeps every choice and the sweep equals the reference.
func TestFrontierStaircaseFallingShare(t *testing.T) {
	x := &hardware.NodeType{Name: "X", Cores: 1,
		Freq:         hardware.DVFS{Steps: []units.Hertz{0.5 * units.GHz, 1.2 * units.GHz}, DynamicExponent: 1},
		NICBandwidth: 1e9, Power: hardware.PowerParams{CPUActPerCore: 50, Idle: 30}, NominalPeak: -60}
	y := &hardware.NodeType{Name: "Y", Cores: 1,
		Freq:         hardware.DVFS{Steps: []units.Hertz{1 * units.GHz}, DynamicExponent: 1},
		NICBandwidth: 1e9, Power: hardware.PowerParams{CPUActPerCore: 0.5, Idle: 0.5}, NominalPeak: 100}
	wl := workload.NewProfile("falling", workload.DomainSynthetic, "units", 1e3)
	for name, cycles := range map[string]units.Cycles{"X": 1e9, "Y": 1e7} {
		if err := wl.SetDemand(name, workload.Demand{CoreCycles: cycles, Intensity: 1}); err != nil {
			t.Fatal(err)
		}
	}
	limits := []cluster.Limit{{Type: x, MaxNodes: 2}, {Type: y, MaxNodes: 1}}
	b := &cluster.PowerBudget{Cap: 30}
	want := referenceSweep(t, limits, wl, b)
	if slow := want[len(want)-1].Config; len(want) != 2 || slow.Count("Y") != 1 || slow.Count("X") != 2 || slow.Groups[0].Freq != 0.5*units.GHz {
		t.Fatalf("reference frontier %v, want Y with two fast X, then Y with two slow X", want)
	}
	got, _ := fastSweep(t, limits, wl, b)
	frontiersBitIdentical(t, "falling share", got, want)
}

// TestFrontierBudgetFractionalBoundary: with fractional rated peaks
// (4.7 W A9, 61.3 W K10, whose sums round differently in different
// orders), a cap set to exactly each mix's PowerBudget.Peak filters the
// same configurations on the fast path, whose walk and closed form sum
// the shares themselves, as on the reference path, with the same
// frontier.
func TestFrontierBudgetFractionalBoundary(t *testing.T) {
	limits := paperLimits(t, 24, 4, false)
	a9, k10 := *limits[0].Type, *limits[1].Type
	a9.NominalPeak, k10.NominalPeak = 4.7, 61.3
	limits[0].Type, limits[1].Type = &a9, &k10
	wl := paperWorkloads(t)[0]
	for nW := 0; nW <= limits[0].MaxNodes; nW++ {
		for nB := 0; nB <= limits[1].MaxNodes; nB++ {
			if nW+nB == 0 {
				continue
			}
			b := &cluster.PowerBudget{Switched: "A9", Switch: hardware.DefaultSwitch()}
			b.Cap = b.Peak(cluster.MustConfig(cluster.FullNodes(&a9, nW), cluster.FullNodes(&k10, nB)))
			label := fmt.Sprintf("cap %v (%d A9 + %d K10)", b.Cap, nW, nB)
			var st, ref SweepStats
			got, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{Budget: b, Stats: &st})
			if err != nil {
				t.Fatal(err)
			}
			want, err := frontierSweepReference(limits, wl, model.Options{}, SweepOptions{Budget: b, Stats: &ref})
			if err != nil {
				t.Fatal(err)
			}
			frontiersBitIdentical(t, label, got, want)
			if st.Evaluated+st.Pruned != ref.Evaluated || st.Skipped != ref.Skipped || st.Filtered != ref.Filtered {
				t.Fatalf("%s: stats %+v, reference %+v", label, st, ref)
			}
		}
	}
}
