package energyprop

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestCrossoverClosedFormVsNumeric: the analytic crossover and the
// bisection on the sampled curve must agree for linear curves.
func TestCrossoverClosedFormVsNumeric(t *testing.T) {
	f := func(idleRaw, peakRaw, refRaw uint16) bool {
		idle := 1 + float64(idleRaw%300)
		peak := idle + 1 + float64(peakRaw%500)
		refPeak := peak * (0.8 + float64(refRaw%400)/100)
		c := Linear(units.Watts(idle), units.Watts(peak), 256)
		r := Reference{PeakPower: refPeak}
		ua, oka := r.SublinearCrossover(c)
		ub, okb := r.CrossoverNumeric(c, 1e-10)
		if oka != okb {
			// Boundary disagreements can only happen within tolerance of
			// u = 1; accept if the analytic crossover is within 1e-6 of 1.
			return !oka && math.Abs(ub-1) < 1e-3 || !okb && math.Abs(ua-1) < 1e-3
		}
		if !oka {
			return true
		}
		return math.Abs(ua-ub) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCrossoverPaper25A97K10 verifies the paper's specific Figure 9
// observation: 25 A9 + 7 K10 becomes sub-linear at 50% utilization
// against the 32 A9 + 12 K10 reference running EP.
func TestCrossoverPaper25A9K10(t *testing.T) {
	cat, reg := setup(t)
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	ep, err := reg.Lookup(workload.NameEP)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Analyze(cluster.MustConfig(cluster.FullNodes(a9, 32), cluster.FullNodes(k10, 12)), ep, optsOf(), 100)
	if err != nil {
		t.Fatal(err)
	}
	r := Reference{PeakPower: float64(ref.Result.BusyPower)}

	cfg7, err := Analyze(cluster.MustConfig(cluster.FullNodes(a9, 25), cluster.FullNodes(k10, 7)), ep, optsOf(), 100)
	if err != nil {
		t.Fatal(err)
	}
	u, ok := r.SublinearCrossover(cfg7.CurveRes)
	if !ok {
		t.Fatal("25A9:7K10 never sub-linear")
	}
	if u < 0.40 || u > 0.55 {
		t.Errorf("crossover at %.1f%%, paper says 50%%", 100*u)
	}
	// And (25,8) must cross later than (25,7): more brawny nodes, more
	// idle power.
	cfg8, err := Analyze(cluster.MustConfig(cluster.FullNodes(a9, 25), cluster.FullNodes(k10, 8)), ep, optsOf(), 100)
	if err != nil {
		t.Fatal(err)
	}
	u8, ok8 := r.SublinearCrossover(cfg8.CurveRes)
	if ok8 && u8 <= u {
		t.Errorf("(25,8) crosses at %.2f, not after (25,7)'s %.2f", u8, u)
	}
}

// TestCrossoverMonotoneInBrawnyCount: fewer brawny nodes -> earlier
// sub-linear onset.
func TestCrossoverMonotoneInBrawnyCount(t *testing.T) {
	cat, reg := setup(t)
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	ep, err := reg.Lookup(workload.NameEP)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Analyze(cluster.MustConfig(cluster.FullNodes(a9, 32), cluster.FullNodes(k10, 12)), ep, optsOf(), 100)
	if err != nil {
		t.Fatal(err)
	}
	r := Reference{PeakPower: float64(ref.Result.BusyPower)}
	prev := -1.0
	for k := 2; k <= 10; k += 2 {
		a, err := Analyze(cluster.MustConfig(cluster.FullNodes(a9, 25), cluster.FullNodes(k10, k)), ep, optsOf(), 100)
		if err != nil {
			t.Fatal(err)
		}
		u, ok := r.SublinearCrossover(a.CurveRes)
		if !ok {
			t.Fatalf("25A9:%dK10 never sub-linear", k)
		}
		if u <= prev {
			t.Errorf("crossover not increasing with brawny count: %.3f at k=%d after %.3f", u, k, prev)
		}
		prev = u
	}
}

// TestCrossoverNumericFlat: a zero-idle proportional-but-cheaper curve
// is sub-linear everywhere.
func TestCrossoverNumericFlat(t *testing.T) {
	r := Reference{PeakPower: 100}
	c := Linear(0, 50, 100)
	u, ok := r.CrossoverNumeric(c, 1e-9)
	if !ok || u > 1e-3 {
		t.Errorf("zero-idle cheap curve crossover = (%g, %v), want ~0", u, ok)
	}
}

// optsOf returns the default model options (helper keeps test lines short).
func optsOf() model.Options { return model.Options{} }
