package queueing

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// property_test.go checks order and invariance properties of the M/D/1
// wait-percentile kernel on randomized inputs: percentiles must be
// nondecreasing in both utilization and percentile level, and the
// distribution scales exactly with the service time (the invariance the
// normalized solve is built on).

// TestWaitPercentileMonotoneInRho: at any fixed percentile, pushing the
// server harder can only lengthen the wait.
func TestWaitPercentileMonotoneInRho(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 40; trial++ {
		p := 40 + 59*rng.Float64() // [40, 99)
		d := math.Exp(8 * (rng.Float64() - 0.5))
		rhos := make([]float64, 12)
		for i := range rhos {
			rhos[i] = 0.02 + 0.95*rng.Float64()
		}
		// Sort ascending (insertion sort; n is tiny).
		for i := 1; i < len(rhos); i++ {
			for j := i; j > 0 && rhos[j] < rhos[j-1]; j-- {
				rhos[j], rhos[j-1] = rhos[j-1], rhos[j]
			}
		}
		prev := -1.0
		for _, rho := range rhos {
			q, err := NewMD1FromUtilization(rho, d)
			if err != nil {
				t.Fatal(err)
			}
			w, err := q.WaitPercentile(p)
			if err != nil {
				t.Fatalf("rho=%g p=%g: %v", rho, p, err)
			}
			// Allow the solver tolerance when two rhos are nearly equal.
			if w < prev-1e-9*math.Max(1, prev) {
				t.Fatalf("p%g wait decreased in rho: %g after %g (d=%g)", p, w, prev, d)
			}
			prev = w
		}
	}
}

// TestWaitPercentileMonotoneInP: at any fixed utilization, a higher
// percentile is a (weakly) longer wait.
func TestWaitPercentileMonotoneInP(t *testing.T) {
	rng := stats.NewRNG(12)
	for trial := 0; trial < 40; trial++ {
		rho := 0.05 + 0.93*rng.Float64()
		d := math.Exp(8 * (rng.Float64() - 0.5))
		q, err := NewMD1FromUtilization(rho, d)
		if err != nil {
			t.Fatal(err)
		}
		prev := -1.0
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9} {
			w, err := q.WaitPercentile(p)
			if err != nil {
				t.Fatalf("rho=%g p=%g: %v", rho, p, err)
			}
			if w < prev-1e-9*math.Max(1, prev) {
				t.Fatalf("rho=%g: p%g wait %g below previous %g", rho, p, w, prev)
			}
			prev = w
		}
	}
}

// TestWaitScaleInvariance: W(rho, D) = D * W(rho, 1) exactly (up to
// 1e-9 relative) across service times spanning ten decades — the
// identity that lets one cached unit-service search serve every D.
func TestWaitScaleInvariance(t *testing.T) {
	rng := stats.NewRNG(13)
	for trial := 0; trial < 60; trial++ {
		rho := 0.05 + 0.93*rng.Float64()
		p := 30 + 69.9*rng.Float64()
		// D from 1e-6 to 1e4.
		d := math.Exp(math.Log(1e-6) + rng.Float64()*math.Log(1e10))

		unit, err := NewMD1FromUtilization(rho, 1)
		if err != nil {
			t.Fatal(err)
		}
		scaled, err := NewMD1FromUtilization(rho, d)
		if err != nil {
			t.Fatal(err)
		}
		wUnit, err := unit.WaitPercentile(p)
		if err != nil {
			t.Fatal(err)
		}
		wScaled, err := scaled.WaitPercentile(p)
		if err != nil {
			t.Fatal(err)
		}
		want := d * wUnit
		if diff := math.Abs(wScaled - want); diff > 1e-9*math.Max(1, math.Max(wScaled, want)) {
			t.Fatalf("rho=%g p=%g d=%g: W=%g, want d*W(1)=%g (diff %g)",
				rho, p, d, wScaled, want, diff)
		}
		// The response percentile shifts by exactly the service time.
		rScaled, err := scaled.ResponsePercentile(p)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(rScaled - (wScaled + d)); diff > 1e-12*math.Max(1, rScaled) {
			t.Fatalf("response percentile %g != wait %g + d %g", rScaled, wScaled, d)
		}
	}
}

// TestMeanWaitMonotoneAndPK: the Pollaczek-Khinchine mean is monotone in
// rho and matches the closed form rho*D/(2(1-rho)) exactly.
func TestMeanWaitMonotoneAndPK(t *testing.T) {
	rng := stats.NewRNG(14)
	for trial := 0; trial < 100; trial++ {
		rho := 0.02 + 0.96*rng.Float64()
		d := math.Exp(8 * (rng.Float64() - 0.5))
		q, err := NewMD1FromUtilization(rho, d)
		if err != nil {
			t.Fatal(err)
		}
		want := rho * d / (2 * (1 - rho))
		if got := q.MeanWait(); math.Abs(got-want) > 1e-12*math.Max(1, want) {
			t.Fatalf("rho=%g d=%g: mean wait %g, want %g", rho, d, got, want)
		}
	}
}
