package pareto

import (
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

func mkPoint(t, e float64) Point {
	return Point{Time: units.Seconds(t), Energy: units.Joules(e)}
}

// dominates reports whether a is at least as good as b on both axes and
// strictly better on one.
func dominates(a, b Point) bool {
	if a.Time > b.Time || a.Energy > b.Energy {
		return false
	}
	return a.Time < b.Time || a.Energy < b.Energy
}

// evaluateAll runs the model over every configuration, skipping those
// the workload cannot run: the plain oracle some tests need every
// evaluated point of.
func evaluateAll(configs []cluster.Config, wl *workload.Profile) []Point {
	var out []Point
	for _, cfg := range configs {
		if res, err := model.Evaluate(cfg, wl, model.Options{}); err == nil {
			out = append(out, Point{Config: cfg, Time: res.Time, Energy: res.Energy, Result: res})
		}
	}
	return out
}

func TestFrontierBasic(t *testing.T) {
	points := []Point{
		mkPoint(1, 10), // fast, expensive: on frontier
		mkPoint(2, 5),  // on frontier
		mkPoint(3, 6),  // dominated by (2,5)
		mkPoint(4, 4),  // on frontier
		mkPoint(2, 7),  // dominated by (2,5)
	}
	f := Frontier(points)
	if len(f) != 3 {
		t.Fatalf("frontier size %d, want 3: %+v", len(f), f)
	}
	want := []Point{mkPoint(1, 10), mkPoint(2, 5), mkPoint(4, 4)}
	for i := range want {
		if f[i].Time != want[i].Time || f[i].Energy != want[i].Energy {
			t.Errorf("frontier[%d] = (%v,%v), want (%v,%v)",
				i, f[i].Time, f[i].Energy, want[i].Time, want[i].Energy)
		}
	}
}

func TestFrontierEmptyAndSingle(t *testing.T) {
	if f := Frontier(nil); f != nil {
		t.Error("empty input should give nil frontier")
	}
	f := Frontier([]Point{mkPoint(1, 1)})
	if len(f) != 1 {
		t.Errorf("single point frontier size %d", len(f))
	}
}

// TestFrontierNonDominating is the core property: no frontier point
// dominates another, and every input point is dominated by or equal to
// some frontier point.
func TestFrontierNonDominating(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 1
		rng := stats.NewRNG(seed)
		points := make([]Point, n)
		for i := range points {
			points[i] = mkPoint(1+rng.Float64()*10, 1+rng.Float64()*10)
		}
		front := Frontier(points)
		if len(front) == 0 {
			return false
		}
		for i := range front {
			for j := range front {
				if i != j && dominates(front[i], front[j]) {
					return false
				}
			}
		}
		for _, p := range points {
			covered := false
			for _, q := range front {
				if q.Time <= p.Time && q.Energy <= p.Energy {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		// Frontier is sorted by time ascending and energy descending.
		for i := 1; i < len(front); i++ {
			if front[i].Time <= front[i-1].Time || front[i].Energy >= front[i-1].Energy {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func paperFrontier(t *testing.T, wlName string) []Point {
	t.Helper()
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := reg.Lookup(wlName)
	if err != nil {
		t.Fatal(err)
	}
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	limits := []cluster.Limit{
		{Type: a9, MaxNodes: 32, FixCoresAndFreq: true},
		{Type: k10, MaxNodes: 12, FixCoresAndFreq: true},
	}
	front, err := frontierSweepReference(limits, wl, model.Options{}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return front
}

// TestEPFrontierShedsBrawnyNodes: for EP (wimpy PPR wins) the frontier
// holds A9 at max and trades away K10 nodes — the structure behind
// Figure 9's sub-linear configurations.
func TestEPFrontierShedsBrawnyNodes(t *testing.T) {
	front := paperFrontier(t, workload.NameEP)
	if len(front) < 3 {
		t.Fatalf("frontier too small: %d", len(front))
	}
	// Fastest point is the full mix.
	if got := front[0].Config.String(); got != "32 A9: 12 K10" {
		t.Errorf("fastest frontier config %s, want 32 A9: 12 K10", got)
	}
	// Every mixed frontier point keeps the full A9 complement.
	for _, p := range front {
		if p.Config.Count("K10") > 0 && p.Config.Count("A9") != 0 && p.Config.Count("A9") != 32 {
			t.Errorf("mixed frontier point %s does not hold A9 at max", p.Config)
		}
	}
	// The cheapest point has no K10 nodes (A9 is more energy efficient).
	last := front[len(front)-1]
	if last.Config.Count("K10") != 0 {
		t.Errorf("cheapest config %s still has brawny nodes", last.Config)
	}
}

// TestX264FrontierShedsWimpyNodes: for x264 (brawny PPR wins) the
// frontier instead holds K10 at max and sheds A9 nodes.
func TestX264FrontierShedsWimpyNodes(t *testing.T) {
	front := paperFrontier(t, workload.NameX264)
	if got := front[0].Config.String(); got != "32 A9: 12 K10" {
		t.Errorf("fastest frontier config %s, want 32 A9: 12 K10", got)
	}
	for _, p := range front {
		if p.Config.Count("A9") > 0 && p.Config.Count("K10") != 0 && p.Config.Count("K10") != 12 {
			t.Errorf("mixed frontier point %s does not hold K10 at max", p.Config)
		}
	}
	last := front[len(front)-1]
	if last.Config.Count("A9") != 0 {
		t.Errorf("cheapest config %s still has wimpy nodes", last.Config)
	}
}

func TestSweetRegionFilters(t *testing.T) {
	front := []Point{mkPoint(1, 10), mkPoint(2, 5), mkPoint(4, 4)}
	s := SweetRegion(front, 2.5, 0)
	if len(s) != 2 {
		t.Errorf("deadline filter kept %d, want 2", len(s))
	}
	s = SweetRegion(front, 0, 6)
	if len(s) != 2 {
		t.Errorf("budget filter kept %d, want 2", len(s))
	}
	s = SweetRegion(front, 2.5, 6)
	if len(s) != 1 || s[0].Energy != 5 {
		t.Errorf("combined filter = %+v", s)
	}
	if s := SweetRegion(front, 0, 0); len(s) != 3 {
		t.Errorf("unconstrained sweet region kept %d, want all", len(s))
	}
}

func TestMinEnergyUnderDeadline(t *testing.T) {
	front := []Point{mkPoint(1, 10), mkPoint(2, 5), mkPoint(4, 4)}
	p, ok := MinEnergyUnderDeadline(front, 3)
	if !ok || p.Energy != 5 {
		t.Errorf("got (%+v, %v), want energy 5", p, ok)
	}
	if _, ok := MinEnergyUnderDeadline(front, 0.5); ok {
		t.Error("impossible deadline reported feasible")
	}
}

// TestMinEDPOnFrontier: the EDP-optimal configuration of the full space
// always lies on the Pareto frontier (EDP is monotone in both axes).
func TestMinEDPOnFrontier(t *testing.T) {
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := reg.Lookup(workload.NameEP)
	if err != nil {
		t.Fatal(err)
	}
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	configs, err := cluster.EnumerateAll([]cluster.Limit{
		{Type: a9, MaxNodes: 10, FixCoresAndFreq: true},
		{Type: k10, MaxNodes: 5, FixCoresAndFreq: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := evaluateAll(configs, wl)
	bestAll, ok := MinEDP(all)
	if !ok {
		t.Fatal("no EDP optimum")
	}
	front := Frontier(all)
	bestFront, ok := MinEDP(front)
	if !ok {
		t.Fatal("no EDP optimum on frontier")
	}
	if bestAll.Result.EDP() != bestFront.Result.EDP() {
		t.Errorf("EDP optimum not on frontier: %s (%.4g) vs %s (%.4g)",
			bestAll.Config, bestAll.Result.EDP(), bestFront.Config, bestFront.Result.EDP())
	}
	if _, ok := MinEDP(nil); ok {
		t.Error("empty MinEDP reported a point")
	}
}

func TestEvaluateSkipsUnsupportedConfigs(t *testing.T) {
	cat := hardware.DefaultCatalog()
	a9, _ := cat.Lookup("A9")
	a15, _ := cat.Lookup("A15")
	// A workload that only supports A9.
	p := workload.NewProfile("only-a9", workload.DomainSynthetic, "u", 100)
	if err := p.SetDemand("A9", workload.Demand{CoreCycles: 100, Intensity: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Of the 8 configurations, the 6 holding A15 nodes are unsupported.
	limits := []cluster.Limit{{Type: a9, MaxNodes: 2, FixCoresAndFreq: true}, {Type: a15, MaxNodes: 2, FixCoresAndFreq: true}}
	for _, engine := range []struct {
		name  string
		sweep func([]cluster.Limit, *workload.Profile, model.Options, SweepOptions) ([]Point, error)
	}{{"reference", frontierSweepReference}, {"fast", FrontierSweep}} {
		var st SweepStats
		if _, err := engine.sweep(limits, p, model.Options{}, SweepOptions{Stats: &st}); err != nil {
			t.Fatal(err)
		}
		if st.Evaluated+st.Pruned != 2 || st.Skipped != 6 {
			t.Errorf("%s: stats %+v, want 2 evaluated and 6 skipped", engine.name, st)
		}
	}
}
