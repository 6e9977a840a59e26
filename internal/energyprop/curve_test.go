package energyprop

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/units"
)

func TestNewCurveValidation(t *testing.T) {
	good := stats.Linspace(0, 1, 5)
	if _, err := NewCurve(good, []float64{1, 2, 3, 4, 5}); err != nil {
		t.Errorf("valid curve rejected: %v", err)
	}
	cases := []struct {
		label string
		u, p  []float64
	}{
		{"length mismatch", []float64{0, 1}, []float64{1}},
		{"single point", []float64{0}, []float64{1}},
		{"missing zero", []float64{0.1, 1}, []float64{1, 2}},
		{"missing one", []float64{0, 0.9}, []float64{1, 2}},
		{"not ascending", []float64{0, 0.5, 0.5, 1}, []float64{1, 2, 3, 4}},
		{"negative power", []float64{0, 1}, []float64{-1, 2}},
		{"NaN power", []float64{0, 1}, []float64{math.NaN(), 2}},
	}
	for _, c := range cases {
		if _, err := NewCurve(c.u, c.p); err == nil {
			t.Errorf("%s: accepted", c.label)
		}
	}
}

func TestCurveAtInterpolation(t *testing.T) {
	c := Linear(10, 110, 10)
	cases := []struct{ u, want float64 }{
		{0, 10}, {1, 110}, {0.5, 60}, {0.25, 35},
		{-1, 10}, // clamped below
		{2, 110}, // clamped above
	}
	for _, cse := range cases {
		if got := c.At(cse.u); math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("At(%g) = %g, want %g", cse.u, got, cse.want)
		}
	}
}

// TestCurveAtMonotoneProperty: for any nondecreasing curve, At respects
// monotonicity at arbitrary query points.
func TestCurveAtMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		u := stats.Linspace(0, 1, 33)
		p := make([]float64, len(u))
		acc := rng.Float64() * 10
		for i := range p {
			acc += rng.Float64()
			p[i] = acc
		}
		c, err := NewCurve(u, p)
		if err != nil {
			return false
		}
		prev := -math.MaxFloat64
		for _, q := range stats.Linspace(0, 1, 101) {
			v := c.At(q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestClusterCurveComposition: the cluster curve of n identical nodes is
// the single-node curve scaled by n, so the normalized curves (and
// therefore the metrics) coincide — why Table 8's homogeneous columns
// equal Table 7.
func TestClusterCurveComposition(t *testing.T) {
	single := Linear(units.Watts(1.8), units.Watts(2.43), 64)
	clusterCurve := scaled(single, 128)
	ms, mc := ComputeMetrics(single), ComputeMetrics(clusterCurve)
	if math.Abs(ms.DPR-mc.DPR) > 1e-9 || math.Abs(ms.EPM-mc.EPM) > 1e-9 {
		t.Error("homogeneous scaling changed proportionality metrics")
	}
	for _, u := range []float64{0.2, 0.5, 0.8} {
		if math.Abs(single.NormalizedAt(u)-clusterCurve.NormalizedAt(u)) > 1e-12 {
			t.Errorf("normalized curves differ at u=%g", u)
		}
	}
}

func TestNormalizedAtZeroPeak(t *testing.T) {
	c := Curve{U: []float64{0, 1}, P: []float64{0, 0}}
	if got := c.NormalizedAt(0.5); got != 0 {
		t.Errorf("zero-peak normalized = %g", got)
	}
}

// scaled returns c with every power multiplied by f, as aggregating f
// identical nodes does.
func scaled(c Curve, f float64) Curve {
	p := make([]float64, len(c.P))
	for i, v := range c.P {
		p[i] = v * f
	}
	return Curve{U: c.U, P: p}
}
