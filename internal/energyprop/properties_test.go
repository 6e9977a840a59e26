package energyprop

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/units"
)

// properties_test.go checks the mutual-consistency identities of the
// Table 3 metrics on randomized power curves, rather than pinned
// numbers: the identities hold for *every* curve in a family, so any
// regression in one metric shows up as a broken relation to the others.

// randMonotoneCurve draws a random nondecreasing power curve from idle
// to peak on an n-point uniform utilization grid.
func randMonotoneCurve(rng *stats.RNG, n int, idle, peak float64) Curve {
	// n-1 nonnegative increments summing to peak-idle.
	incs := make([]float64, n-1)
	var sum float64
	for i := range incs {
		incs[i] = rng.Float64()
		sum += incs[i]
	}
	u := make([]float64, n)
	p := make([]float64, n)
	p[0] = idle
	for i := 1; i < n; i++ {
		u[i] = float64(i) / float64(n-1)
		p[i] = p[i-1]
		if sum > 0 {
			p[i] += (peak - idle) * incs[i-1] / sum
		}
	}
	p[n-1] = peak // pin the endpoint against rounding drift
	c, err := NewCurve(u, p)
	if err != nil {
		panic(err)
	}
	return c
}

// TestLinearCurveIdentities: for any linear idle->peak curve the paper's
// Section III-B identity holds — EPM = LDR = 1 - IPR — with
// DPR = 100*(1-IPR) by definition and zero chord deviation.
func TestLinearCurveIdentities(t *testing.T) {
	rng := stats.NewRNG(1)
	for trial := 0; trial < 200; trial++ {
		peak := 50 + 1500*rng.Float64()
		idle := peak * rng.Float64()
		m := ComputeMetrics(Linear(units.Watts(idle), units.Watts(peak), 101))

		wantIPR := idle / peak
		if math.Abs(m.IPR-wantIPR) > 1e-12 {
			t.Fatalf("idle=%g peak=%g: IPR=%g, want %g", idle, peak, m.IPR, wantIPR)
		}
		if math.Abs(m.DPR-100*(1-m.IPR)) > 1e-9 {
			t.Fatalf("DPR=%g inconsistent with IPR=%g", m.DPR, m.IPR)
		}
		if math.Abs(m.EPM-(1-m.IPR)) > 1e-9 {
			t.Fatalf("linear curve: EPM=%g, want 1-IPR=%g", m.EPM, 1-m.IPR)
		}
		if math.Abs(m.LDR-m.EPM) > 1e-9 {
			t.Fatalf("linear curve: LDR=%g != EPM=%g", m.LDR, m.EPM)
		}
		if math.Abs(m.ChordLDR) > 1e-9 {
			t.Fatalf("linear curve deviates from its own chord: %g", m.ChordLDR)
		}
	}
}

// TestIdealProportionalCurve: zero idle power is the EPM=1 extreme and
// closes the proportionality gap at every utilization.
func TestIdealProportionalCurve(t *testing.T) {
	c := Linear(0, 400, 101)
	m := ComputeMetrics(c)
	if math.Abs(m.EPM-1) > 1e-12 || m.IPR != 0 || math.Abs(m.DPR-100) > 1e-12 {
		t.Fatalf("ideal curve metrics: %+v", m)
	}
	for _, u := range stats.Linspace(0.05, 1, 20) {
		if pg := PG(c, u); math.Abs(pg) > 1e-9 {
			t.Fatalf("ideal curve PG(%g)=%g, want 0", u, pg)
		}
	}
}

// TestConstantPowerCurve: a totally unproportional server pins the other
// extreme — EPM=0, IPR=1, DPR=0 — and its proportionality gap at
// utilization u is exactly (1-u)/u.
func TestConstantPowerCurve(t *testing.T) {
	c := Linear(300, 300, 101)
	m := ComputeMetrics(c)
	if math.Abs(m.EPM) > 1e-12 || math.Abs(m.IPR-1) > 1e-12 || math.Abs(m.DPR) > 1e-12 {
		t.Fatalf("constant curve metrics: %+v", m)
	}
	if math.Abs(m.LDR) > 1e-9 || math.Abs(m.ChordLDR) > 1e-9 {
		t.Fatalf("constant curve slope metrics: %+v", m)
	}
	for _, u := range stats.Linspace(0.1, 1, 10) {
		want := (1 - u) / u
		if pg := PG(c, u); math.Abs(pg-want) > 1e-9 {
			t.Fatalf("constant curve PG(%g)=%g, want %g", u, pg, want)
		}
	}
}

// TestRandomCurveBounds: on any monotone curve the metrics stay inside
// their defined ranges and keep their defining relations.
func TestRandomCurveBounds(t *testing.T) {
	rng := stats.NewRNG(2)
	for trial := 0; trial < 300; trial++ {
		peak := 50 + 1500*rng.Float64()
		idle := peak * rng.Float64()
		c := randMonotoneCurve(rng, 2+rng.Intn(100), idle, peak)
		m := ComputeMetrics(c)

		if m.IPR < 0 || m.IPR > 1 {
			t.Fatalf("IPR=%g outside [0,1]", m.IPR)
		}
		if m.DPR < 0 || m.DPR > 100 {
			t.Fatalf("DPR=%g outside [0,100]", m.DPR)
		}
		if m.EPM < 0 || m.EPM > 2 {
			t.Fatalf("EPM=%g outside [0,2]", m.EPM)
		}
		if math.Abs(m.DPR-100*(1-m.IPR)) > 1e-9 {
			t.Fatalf("DPR=%g inconsistent with IPR=%g", m.DPR, m.IPR)
		}
		// A monotone curve ending at peak sits above the ideal line at
		// u=1, so the gap there is >= 0 only when power == peak exactly.
		if pg := PG(c, 1); math.Abs(pg) > 1e-12 {
			t.Fatalf("PG(1)=%g for a curve pinned at its peak", pg)
		}
	}
}

// TestChordLDRSign: curves bowed below their idle-to-peak chord
// (convex) report ChordLDR <= 0; curves bowed above (concave) >= 0.
func TestChordLDRSign(t *testing.T) {
	rng := stats.NewRNG(3)
	n := 101
	u := stats.Linspace(0, 1, n)
	for trial := 0; trial < 100; trial++ {
		peak := 100 + 1000*rng.Float64()
		idle := peak * 0.5 * rng.Float64()
		gamma := 1 + 3*rng.Float64() // u^gamma is convex for gamma>1
		below := make([]float64, n)
		above := make([]float64, n)
		for i, x := range u {
			below[i] = idle + (peak-idle)*math.Pow(x, gamma)
			above[i] = idle + (peak-idle)*math.Pow(x, 1/gamma)
		}
		cb, err := NewCurve(u, below)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := NewCurve(u, above)
		if err != nil {
			t.Fatal(err)
		}
		if m := ComputeMetrics(cb); m.ChordLDR > 1e-12 {
			t.Fatalf("convex curve (gamma=%g) ChordLDR=%g > 0", gamma, m.ChordLDR)
		}
		if m := ComputeMetrics(ca); m.ChordLDR < -1e-12 {
			t.Fatalf("concave curve (gamma=%g) ChordLDR=%g < 0", gamma, m.ChordLDR)
		}
	}
}

// TestMetricsScaleInvariance: every Table 3 metric is dimensionless, so
// uniformly scaling the power curve must not move any of them; PG is
// likewise invariant pointwise.
func TestMetricsScaleInvariance(t *testing.T) {
	rng := stats.NewRNG(4)
	for trial := 0; trial < 100; trial++ {
		peak := 50 + 1500*rng.Float64()
		idle := peak * rng.Float64()
		c := randMonotoneCurve(rng, 2+rng.Intn(60), idle, peak)
		f := math.Exp(10 * (rng.Float64() - 0.5)) // factors across ~4 decades
		cs := scaled(c, f)

		m, ms := ComputeMetrics(c), ComputeMetrics(cs)
		if !closeRel(m.IPR, ms.IPR) || !closeRel(m.DPR, ms.DPR) ||
			!closeRel(m.EPM, ms.EPM) || !closeRel(m.LDR, ms.LDR) ||
			!closeRel(m.ChordLDR, ms.ChordLDR) {
			t.Fatalf("scale %g moved metrics: %+v vs %+v", f, m, ms)
		}
		for _, u := range []float64{0.1, 0.3, 0.5, 0.9, 1} {
			if !closeRel(PG(c, u), PG(cs, u)) {
				t.Fatalf("scale %g moved PG(%g): %g vs %g", f, u, PG(c, u), PG(cs, u))
			}
		}
	}
}

// closeRel compares within 1e-9 relative (or absolute near zero).
func closeRel(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-9 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
