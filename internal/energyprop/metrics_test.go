package energyprop

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

func setup(t *testing.T) (*hardware.Catalog, *workload.Registry) {
	t.Helper()
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatalf("PaperRegistry: %v", err)
	}
	return cat, reg
}

func analyze(t *testing.T, cat *hardware.Catalog, reg *workload.Registry, wl string, groups ...cluster.Group) *Analysis {
	t.Helper()
	p, err := reg.Lookup(wl)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(cluster.MustConfig(groups...), p, model.Options{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// paperTable7 holds the published single-node metrics (DPR percent).
var paperTable7 = map[string]map[string]float64{
	"EP":           {"A9": 25.97, "K10": 34.57},
	"memcached":    {"A9": 16.78, "K10": 11.05},
	"x264":         {"A9": 35.54, "K10": 38.41},
	"blackscholes": {"A9": 32.11, "K10": 37.30},
	"Julius":       {"A9": 30.48, "K10": 38.10},
	"RSA-2048":     {"A9": 35.62, "K10": 41.19},
}

// TestTable7SingleNodeMetrics reproduces Table 7: DPR, IPR, EPM, LDR for
// single A9 and K10 nodes across all six workloads.
func TestTable7SingleNodeMetrics(t *testing.T) {
	cat, reg := setup(t)
	for wl, nodes := range paperTable7 {
		for node, wantDPR := range nodes {
			nt, err := cat.Lookup(node)
			if err != nil {
				t.Fatal(err)
			}
			a := analyze(t, cat, reg, wl, cluster.FullNodes(nt, 1))
			m := a.Metrics()
			if math.Abs(m.DPR-wantDPR) > 0.5 {
				t.Errorf("%s on %s: DPR = %.2f, want %.2f", wl, node, m.DPR, wantDPR)
			}
			wantIPR := 1 - wantDPR/100
			if math.Abs(m.IPR-wantIPR) > 0.005 {
				t.Errorf("%s on %s: IPR = %.4f, want %.4f", wl, node, m.IPR, wantIPR)
			}
			// The paper observes EPM = LDR = 1 - IPR for all entries.
			if math.Abs(m.EPM-(1-wantIPR)) > 0.005 {
				t.Errorf("%s on %s: EPM = %.4f, want %.4f", wl, node, m.EPM, 1-wantIPR)
			}
			if math.Abs(m.LDR-(1-wantIPR)) > 0.005 {
				t.Errorf("%s on %s: LDR = %.4f, want %.4f", wl, node, m.LDR, 1-wantIPR)
			}
			// Model curves are linear, so the literal chord deviation
			// must vanish.
			if math.Abs(m.ChordLDR) > 1e-9 {
				t.Errorf("%s on %s: ChordLDR = %g, want 0 for linear curve", wl, node, m.ChordLDR)
			}
		}
	}
}

// paperTable8 holds the published cluster-wide DPR values for the 1 kW
// budget mixes (wimpy count, brawny count) -> DPR.
var paperTable8 = map[string]map[[2]int]float64{
	"EP":           {{128, 0}: 25.97, {64, 8}: 32.66, {0, 16}: 34.57},
	"memcached":    {{128, 0}: 16.78, {64, 8}: 12.44, {0, 16}: 11.05},
	"x264":         {{128, 0}: 35.54, {64, 8}: 37.73, {0, 16}: 38.41},
	"blackscholes": {{128, 0}: 32.11, {64, 8}: 36.10, {0, 16}: 37.30},
	"Julius":       {{128, 0}: 30.48, {64, 8}: 36.39, {0, 16}: 38.09},
	"RSA-2048":     {{128, 0}: 35.62, {64, 8}: 39.92, {0, 16}: 41.19},
}

// TestTable8ClusterMetrics reproduces Table 8's cluster-wide DPR for the
// homogeneous and 64:8 heterogeneous mixes.
func TestTable8ClusterMetrics(t *testing.T) {
	cat, reg := setup(t)
	a9, err := cat.Lookup("A9")
	if err != nil {
		t.Fatal(err)
	}
	k10, err := cat.Lookup("K10")
	if err != nil {
		t.Fatal(err)
	}
	for wl, mixes := range paperTable8 {
		for mix, wantDPR := range mixes {
			var groups []cluster.Group
			if mix[0] > 0 {
				groups = append(groups, cluster.FullNodes(a9, mix[0]))
			}
			if mix[1] > 0 {
				groups = append(groups, cluster.FullNodes(k10, mix[1]))
			}
			a := analyze(t, cat, reg, wl, groups...)
			m := a.Metrics()
			// The 64:8 heterogeneous DPR depends on how the workload
			// splits across node types; allow a slightly wider band
			// there than on the homogeneous columns.
			tol := 0.5
			if mix[0] > 0 && mix[1] > 0 {
				tol = 1.5
			}
			if math.Abs(m.DPR-wantDPR) > tol {
				t.Errorf("%s on %dA9:%dK10: DPR = %.2f, want %.2f", wl, mix[0], mix[1], m.DPR, wantDPR)
			}
		}
	}
}

// TestK10ClusterIdlePower checks Section III-C's observation that the
// 16-node K10 cluster idles around 720 W, about three times the A9
// cluster's idle draw.
func TestK10ClusterIdlePower(t *testing.T) {
	cat, reg := setup(t)
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	k10Cluster := analyze(t, cat, reg, "EP", cluster.FullNodes(k10, 16))
	a9Cluster := analyze(t, cat, reg, "EP", cluster.FullNodes(a9, 128))
	if got := float64(k10Cluster.Result.IdlePower); math.Abs(got-720) > 1 {
		t.Errorf("K10 cluster idle power = %.1f W, want ~720 W", got)
	}
	ratio := float64(k10Cluster.Result.IdlePower) / float64(a9Cluster.Result.IdlePower)
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("K10/A9 idle ratio = %.2f, paper says about three times", ratio)
	}
}

// TestLinearCurveMetricIdentity is the paper's Section III-B algebra as
// a property: for any linear curve, EPM = LDR = 1 - IPR and
// DPR = (1-IPR)*100.
func TestLinearCurveMetricIdentity(t *testing.T) {
	f := func(idleRaw, spanRaw uint16) bool {
		idle := 1 + float64(idleRaw%5000)/10
		span := 1 + float64(spanRaw%5000)/10
		c := Linear(units.Watts(idle), units.Watts(idle+span), 64)
		m := ComputeMetrics(c)
		want := 1 - idle/(idle+span)
		return math.Abs(m.EPM-want) < 1e-9 &&
			math.Abs(m.LDR-want) < 1e-9 &&
			math.Abs(m.DPR-100*want) < 1e-6 &&
			math.Abs(m.ChordLDR) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPGDivergesAtLowUtilization checks that the proportionality gap
// grows toward low utilization for any non-proportional system.
func TestPGDivergesAtLowUtilization(t *testing.T) {
	c := Linear(50, 100, 100)
	prev := PG(c, 0.9)
	for _, u := range []float64{0.7, 0.5, 0.3, 0.1} {
		g := PG(c, u)
		if g <= prev {
			t.Errorf("PG(%g) = %g not above PG at higher utilization %g", u, g, prev)
		}
		prev = g
	}
	if !math.IsInf(PG(c, 0), 1) {
		t.Error("PG at zero utilization should be +Inf")
	}
}

// TestSuperAndSubLinearCurves exercises EPM/ChordLDR signs on curved
// (non-model) power profiles like Figure 2's.
func TestSuperAndSubLinearCurves(t *testing.T) {
	u := stats.Linspace(0, 1, 101)
	super := make([]float64, len(u)) // bows above the chord
	sub := make([]float64, len(u))   // bows below the chord
	for i, x := range u {
		super[i] = 20 + 80*math.Sqrt(x)
		sub[i] = 20 + 80*x*x
	}
	cs, err := NewCurve(u, super)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewCurve(u, sub)
	if err != nil {
		t.Fatal(err)
	}
	if m := ComputeMetrics(cs); m.ChordLDR <= 0 {
		t.Errorf("super-linear curve ChordLDR = %g, want > 0", m.ChordLDR)
	}
	if m := ComputeMetrics(cb); m.ChordLDR >= 0 {
		t.Errorf("sub-linear curve ChordLDR = %g, want < 0", m.ChordLDR)
	}
	ms, mb := ComputeMetrics(cs), ComputeMetrics(cb)
	if ms.EPM >= mb.EPM {
		t.Errorf("super-linear EPM %g should be below sub-linear EPM %g", ms.EPM, mb.EPM)
	}
}

// TestReferenceNormalizationExposesSublinear reproduces the Figure 9
// mechanism in miniature: a smaller config normalized against a larger
// reference peak can fall below the ideal line.
func TestReferenceNormalizationExposesSublinear(t *testing.T) {
	cat, reg := setup(t)
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	ref := analyze(t, cat, reg, "EP", cluster.FullNodes(a9, 32), cluster.FullNodes(k10, 12))
	small := analyze(t, cat, reg, "EP", cluster.FullNodes(a9, 25), cluster.FullNodes(k10, 5))
	r := Reference{PeakPower: float64(ref.Result.BusyPower)}
	// Against its own peak the small config is never sub-linear...
	if PG(small.CurveRes, 0.5) < 0 {
		t.Error("config sub-linear against its own peak; linear curves cannot be")
	}
	// ...but against the reference peak it must dip below ideal at high
	// utilization (it burns far less absolute power).
	if !r.SublinearAt(small.CurveRes, 0.9) {
		t.Errorf("25A9:5K10 not sub-linear at u=0.9 against 32A9:12K10 reference (norm=%.3f)",
			r.NormalizedAt(small.CurveRes, 0.9))
	}
	lo, hi, ok := r.SublinearRange(small.CurveRes, stats.Linspace(0.05, 1, 96))
	if !ok {
		t.Fatal("expected a sub-linear range")
	}
	if lo >= hi {
		t.Errorf("degenerate sub-linear range [%g, %g]", lo, hi)
	}
}

// TestPPRDecreasesWithUtilization: throughput scales with u but power has
// an idle floor, so PPR must improve monotonically with utilization.
func TestPPRIncreasesWithUtilization(t *testing.T) {
	cat, reg := setup(t)
	a9, _ := cat.Lookup("A9")
	a := analyze(t, cat, reg, "EP", cluster.FullNodes(a9, 1))
	prev := -1.0
	for _, u := range stats.Linspace(0.1, 1, 10) {
		v := a.PPRAt(u)
		if v <= prev {
			t.Errorf("PPR(%g) = %g not increasing", u, v)
		}
		prev = v
	}
	// At u=1 it must equal the Table 6 value.
	want := workload.PaperPPR["EP"]["A9"]
	if stats.RelErr(a.PPRAt(1), want) > 0.01 {
		t.Errorf("PPR(1) = %g, want %g", a.PPRAt(1), want)
	}
}
