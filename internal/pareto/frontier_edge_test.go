package pareto

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/units"
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
	if f[0].Energy != 5.0 || f[0].Config.Nodes() != 2 {
		t.Errorf("head = %v (E=%v), want the 2-node (1.0, 5.0) point", f[0].Config, f[0].Energy)
	}
	if f[1].Config.Nodes() != 3 {
		t.Errorf("second point = %v, want the 3-node one", f[1].Config)
	}

	// Exact duplicates at the head keep their first representative.
	dup := []Point{
		markedPoint(t, 4, 2.0, 6.0),
		markedPoint(t, 5, 2.0, 6.0),
	}
	f = Frontier(dup)
	if len(f) != 1 || f[0].Config.Nodes() != 4 {
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
	if f[0].Config.Nodes() != 1 || f[1].Config.Nodes() != 3 {
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
	if len(f) != 1 || f[0].Config.Nodes() != 7 {
		t.Fatalf("head tie: got %+v, want the lower-energy 7-node point", f)
	}
}
