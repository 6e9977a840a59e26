package pareto

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// markedPoint builds a point carrying a distinguishable configuration
// (n A9 nodes) so tests can assert config identity, not just scalars.
func markedPoint(t *testing.T, nodes int, tm, en float64) Point {
	t.Helper()
	a9, err := hardware.DefaultCatalog().Lookup("A9")
	if err != nil {
		t.Fatal(err)
	}
	return Point{
		Config: cluster.MustConfig(cluster.FullNodes(a9, nodes)),
		Time:   units.Seconds(tm),
		Energy: units.Joules(en),
	}
}

// TestFrontierTimeTieAtHead: when the earliest time class holds several
// points, the class's lowest-energy representative must win regardless
// of input order — the old scan accepted whatever the sort left at
// index 0 and the same-Time branch then locked every rival out of the
// bestEnergy path.
func TestFrontierTimeTieAtHead(t *testing.T) {
	points := []Point{
		markedPoint(t, 1, 1.0, 9.0), // head time class, worse energy
		markedPoint(t, 2, 1.0, 5.0), // head time class, the real optimum
		markedPoint(t, 3, 3.0, 4.0),
	}
	f := Frontier(points)
	if len(f) != 2 {
		t.Fatalf("frontier size %d, want 2: %+v", len(f), f)
	}
	if f[0].Energy != 5.0 || f[0].Config.Count("A9") != 2 {
		t.Errorf("head = %v (E=%v), want the 2-node (1.0, 5.0) point", f[0].Config, f[0].Energy)
	}
	if f[1].Config.Count("A9") != 3 {
		t.Errorf("second point = %v, want the 3-node one", f[1].Config)
	}

	// Exact duplicates at the head keep their first representative.
	dup := []Point{
		markedPoint(t, 4, 2.0, 6.0),
		markedPoint(t, 5, 2.0, 6.0),
	}
	f = Frontier(dup)
	if len(f) != 1 || f[0].Config.Count("A9") != 4 {
		t.Fatalf("duplicate head: got %+v, want the first (4-node) representative", f)
	}
}

// TestFrontierEnergyNoise1Ulp covers the code-comment case: points that
// improve energy only by floating-point noise (about 1 ulp, e.g. 27 vs
// 32 identical nodes whose per-unit energies are mathematically equal)
// must not ride onto the frontier, while a real improvement must.
func TestFrontierEnergyNoise1Ulp(t *testing.T) {
	const e0 = 100.0
	noise := math.Nextafter(e0, 0) // one ulp below e0
	points := []Point{
		markedPoint(t, 1, 1.0, e0),
		markedPoint(t, 2, 2.0, noise),    // noise-level "improvement": rejected
		markedPoint(t, 3, 3.0, e0*0.999), // real improvement: accepted
	}
	f := Frontier(points)
	if len(f) != 2 {
		t.Fatalf("frontier size %d, want 2: %+v", len(f), f)
	}
	if f[0].Config.Count("A9") != 1 || f[1].Config.Count("A9") != 3 {
		t.Errorf("frontier = [%v, %v], want the 1-node and 3-node points", f[0].Config, f[1].Config)
	}

	// The same noise at the head's own time class: the tie goes to the
	// strictly (if marginally) lower energy, since within a class there
	// is no noise threshold to defend — only ordering.
	tie := []Point{
		markedPoint(t, 6, 1.0, e0),
		markedPoint(t, 7, 1.0, noise),
	}
	f = Frontier(tie)
	if len(f) != 1 || f[0].Config.Count("A9") != 7 {
		t.Fatalf("head tie: got %+v, want the lower-energy 7-node point", f)
	}
}

// TestFrontierDropsNaN: a point with a NaN energy or time orders against
// nothing, so it never joins the frontier, wherever it sits in the
// input; the other points keep the frontier they have without it.
func TestFrontierDropsNaN(t *testing.T) {
	nan := math.NaN()
	for _, points := range [][]Point{
		{markedPoint(t, 1, 1.0, nan), markedPoint(t, 2, 1.0, 5.0), markedPoint(t, 3, 2.0, 4.0)},
		{markedPoint(t, 2, 1.0, 5.0), markedPoint(t, 1, 1.0, nan), markedPoint(t, 3, 2.0, 4.0)},
		{markedPoint(t, 2, 1.0, 5.0), markedPoint(t, 1, nan, 1.0), markedPoint(t, 3, 2.0, 4.0), markedPoint(t, 4, 2.0, nan)},
	} {
		f := Frontier(points)
		if len(f) != 2 || f[0].Config.Count("A9") != 2 || f[1].Config.Count("A9") != 3 {
			t.Fatalf("Frontier(%v) = %+v, want the 2-node then the 3-node point", points, f)
		}
	}
	if f := Frontier([]Point{markedPoint(t, 1, 1.0, nan)}); f != nil {
		t.Fatalf("all-NaN input: got %+v, want nil", f)
	}
}

// TestFrontierSweepRejectsUnbuildableLimits: limits whose space holds
// configurations cluster.NewConfig refuses — a frequency off the
// type's ladder, a second limit on one node type — fail the sweep and
// its oracle with the same error, instead of sweeping configurations
// that cannot exist or panicking mid-walk.
func TestFrontierSweepRejectsUnbuildableLimits(t *testing.T) {
	a9 := hardware.NewA9()
	wl := paperWorkloads(t)[0]
	for name, limits := range map[string][]cluster.Limit{
		"frequency off the ladder": {{Type: a9, MaxNodes: 2, Freqs: []units.Hertz{123}}},
		"two limits on one type":   {{Type: a9, MaxNodes: 2, FixCoresAndFreq: true}, {Type: a9, MaxNodes: 2, FixCoresAndFreq: true}},
	} {
		_, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{})
		_, refErr := frontierSweepReference(limits, wl, model.Options{}, SweepOptions{})
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Errorf("%s: sweep error %v, oracle error %v; want the same error", name, err, refErr)
		}
	}
}

// TestCertificateNeedsBoundedSpace pins the certificate to bounded
// spaces. T0's job share is NIC-bound, so its time stays normal, but
// its core time per node, UnitCore times a 1e-200-unit share, falls
// below the smallest subnormal and rounds to 0 s: the model computes
// 0 J for the T0-only configuration, while the closed form's real
// energy, J·EnergyPerUnit = 1e-100 J, stays normal. The T1-only
// configuration, enumerated first, is faster and costs 5e-102 J, so a
// certificate run on this space would call T0's point covered and skip
// it; the model's 0 J puts it on the frontier.
func TestCertificateNeedsBoundedSpace(t *testing.T) {
	node := func(name string, p hardware.PowerParams) *hardware.NodeType {
		return &hardware.NodeType{Name: name, Cores: 1, NICBandwidth: 1, Power: p, NominalPeak: 1,
			Freq: hardware.DVFS{Steps: []units.Hertz{1}, DynamicExponent: 1}}
	}
	t0 := node("T0", hardware.PowerParams{CPUActPerCore: 1e230})
	t1 := node("T1", hardware.PowerParams{Idle: 1e99})
	wl := workload.NewProfile("subnormal", workload.DomainSynthetic, "units", 1e-200)
	if err := wl.SetDemand("T0", workload.Demand{CoreCycles: 1e-130, IOBytes: 1, Intensity: 1}); err != nil {
		t.Fatal(err)
	}
	if err := wl.SetDemand("T1", workload.Demand{IOBytes: 0.5, Intensity: 1}); err != nil {
		t.Fatal(err)
	}
	limits := []cluster.Limit{{Type: t0, MaxNodes: 1, FixCoresAndFreq: true}, {Type: t1, MaxNodes: 1, FixCoresAndFreq: true}}
	want, err := frontierSweepReference(limits, wl, model.Options{}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last := want[len(want)-1]
	if last.Config.Count("T0") != 1 || last.Config.Degree() != 1 || last.Energy != 0 {
		t.Fatalf("oracle frontier %+v does not end on the 0 J T0-only point", want)
	}
	for _, noPrune := range []bool{false, true} {
		got, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{NoPrune: noPrune})
		if err != nil {
			t.Fatal(err)
		}
		frontiersBitIdentical(t, fmt.Sprintf("NoPrune %v", noPrune), got, want)
	}
}
