package queueing

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// kernel_property_test.go lifts the M/D/1 order/invariance properties
// of property_test.go to every registered kernel, and adds the
// kernel-specific ones: SCV monotonicity for M/G/1 (more service
// variability can never shorten the tail) and the Erlang-C laws for
// M/M/k.

// propertySpecs trims the conformance registry to one spec per distinct
// code path (the SCV = 0 and k = 1 rungs delegate to already-covered
// paths).
func propertySpecs() []Spec {
	return []Spec{
		{Kind: KindMD1},
		{Kind: KindMG1, SCV: 0.5},
		{Kind: KindMG1, SCV: 4},
		{Kind: KindMMK, Servers: 4},
	}
}

// TestKernelPercentileMonotoneInRho: at any fixed percentile, pushing
// the servers harder can only lengthen wait and response, whatever the
// kernel.
func TestKernelPercentileMonotoneInRho(t *testing.T) {
	for _, spec := range propertySpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			rng := stats.NewRNG(21)
			for trial := 0; trial < 12; trial++ {
				p := 40 + 59*rng.Float64()
				d := math.Exp(6 * (rng.Float64() - 0.5))
				prevW, prevR := -1.0, -1.0
				for rho := 0.05; rho < 0.96; rho += 0.1 {
					k := buildKernel(t, spec, rho, d)
					w, err := k.WaitPercentile(p)
					if err != nil {
						t.Fatalf("rho=%g p=%g: %v", rho, p, err)
					}
					if w < prevW-1e-9*math.Max(1, prevW) {
						t.Fatalf("p%g wait decreased in rho: %g after %g (d=%g)", p, w, prevW, d)
					}
					r, err := k.ResponsePercentile(p)
					if err != nil {
						t.Fatalf("rho=%g p=%g: %v", rho, p, err)
					}
					if r < prevR-1e-9*math.Max(1, prevR) {
						t.Fatalf("p%g response decreased in rho: %g after %g (d=%g)", p, r, prevR, d)
					}
					prevW, prevR = w, r
				}
			}
		})
	}
}

// TestKernelPercentileMonotoneInP: at any fixed load, a higher
// percentile is a (weakly) longer wait and response.
func TestKernelPercentileMonotoneInP(t *testing.T) {
	for _, spec := range propertySpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			rng := stats.NewRNG(22)
			for trial := 0; trial < 12; trial++ {
				rho := 0.05 + 0.9*rng.Float64()
				d := math.Exp(6 * (rng.Float64() - 0.5))
				k := buildKernel(t, spec, rho, d)
				prevW, prevR := -1.0, -1.0
				for _, p := range []float64{1, 10, 25, 50, 75, 90, 95, 99, 99.9} {
					w, err := k.WaitPercentile(p)
					if err != nil {
						t.Fatalf("rho=%g p=%g: %v", rho, p, err)
					}
					if w < prevW-1e-9*math.Max(1, prevW) {
						t.Fatalf("rho=%g: p%g wait %g below previous %g", rho, p, w, prevW)
					}
					r, err := k.ResponsePercentile(p)
					if err != nil {
						t.Fatalf("rho=%g p=%g: %v", rho, p, err)
					}
					if r < prevR-1e-9*math.Max(1, prevR) {
						t.Fatalf("rho=%g: p%g response %g below previous %g", rho, p, r, prevR)
					}
					prevW, prevR = w, r
				}
			}
		})
	}
}

// TestKernelScaleInvariance: every kernel is scale free in the service
// time at fixed rho — W(rho, c*d) = c*W(rho, d) — the identity the
// normalized percentile solves depend on.
func TestKernelScaleInvariance(t *testing.T) {
	for _, spec := range propertySpecs() {
		spec := spec
		t.Run(spec.String(), func(t *testing.T) {
			t.Parallel()
			rng := stats.NewRNG(23)
			for trial := 0; trial < 20; trial++ {
				rho := 0.05 + 0.9*rng.Float64()
				p := 30 + 69.9*rng.Float64()
				d := math.Exp(math.Log(1e-6) + rng.Float64()*math.Log(1e10))
				unit := buildKernel(t, spec, rho, 1)
				scaled := buildKernel(t, spec, rho, d)
				for _, q := range []struct {
					name         string
					unit, scaled func(float64) (float64, error)
				}{
					{"wait", unit.WaitPercentile, scaled.WaitPercentile},
					{"response", unit.ResponsePercentile, scaled.ResponsePercentile},
				} {
					wUnit, err := q.unit(p)
					if err != nil {
						t.Fatal(err)
					}
					wScaled, err := q.scaled(p)
					if err != nil {
						t.Fatal(err)
					}
					want := d * wUnit
					if diff := math.Abs(wScaled - want); diff > 1e-9*math.Max(1, math.Max(wScaled, want)) {
						t.Fatalf("rho=%g p=%g d=%g: %s %g, want d*unit = %g",
							rho, p, d, q.name, wScaled, want)
					}
				}
			}
		})
	}
}

// TestMG1SCVMonotoneTail: more service-time variability never shortens
// the wait at any percentile (the mixture CDF is pointwise
// nonincreasing in SCV, the exponential tail's time constant grows with
// it), and never shortens the response tail. The response *median* may
// legitimately shrink with SCV — many tiny jobs, a few huge ones — so
// only tail percentiles are asserted for the sojourn.
func TestMG1SCVMonotoneTail(t *testing.T) {
	scvs := []float64{0, 0.25, 0.5, 0.75, 1, 1.5, 2.5, 4, 8}
	for _, rho := range []float64{0.45, 0.6, 0.85} {
		for _, d := range []float64{0.2, 1, 4.7} {
			for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
				prevW, prevR := -1.0, -1.0
				for _, scv := range scvs {
					q, err := NewMG1FromUtilization(rho, d, scv)
					if err != nil {
						t.Fatal(err)
					}
					w, err := q.WaitPercentile(p)
					if err != nil {
						t.Fatalf("rho=%g scv=%g p=%g: %v", rho, scv, p, err)
					}
					if w < prevW-1e-9*math.Max(1, prevW) {
						t.Errorf("rho=%g d=%g p=%g: wait shrank with SCV: %g at scv=%g after %g",
							rho, d, p, w, scv, prevW)
					}
					prevW = w
					if p >= 90 {
						r, err := q.ResponsePercentile(p)
						if err != nil {
							t.Fatalf("rho=%g scv=%g p=%g: %v", rho, scv, p, err)
						}
						if r < prevR-1e-9*math.Max(1, prevR) {
							t.Errorf("rho=%g d=%g p=%g: response tail shrank with SCV: %g at scv=%g after %g",
								rho, d, p, r, scv, prevR)
						}
						prevR = r
					}
				}
			}
		}
	}
}

// TestMG1MeanIsPollaczekKhinchine: the mean wait matches the exact P-K
// closed form at every SCV — the anchor the whole interpolation is
// built on.
func TestMG1MeanIsPollaczekKhinchine(t *testing.T) {
	rng := stats.NewRNG(24)
	for trial := 0; trial < 60; trial++ {
		rho := 0.02 + 0.96*rng.Float64()
		d := math.Exp(6 * (rng.Float64() - 0.5))
		scv := 8 * rng.Float64()
		q, err := NewMG1FromUtilization(rho, d, scv)
		if err != nil {
			t.Fatal(err)
		}
		want := rho * d * (1 + scv) / (2 * (1 - rho))
		if got := q.MeanWait(); math.Abs(got-want) > 1e-12*math.Max(1, want) {
			t.Fatalf("rho=%g d=%g scv=%g: mean wait %g, want %g", rho, d, scv, got, want)
		}
		if got := q.MeanResponse(); math.Abs(got-(want+d)) > 1e-12*math.Max(1, want+d) {
			t.Fatalf("rho=%g d=%g scv=%g: mean response %g, want %g", rho, d, scv, got, want+d)
		}
	}
}

// TestErlangCProperties pins the Erlang-C laws: a probability in [0,1],
// monotone increasing in offered load, monotone decreasing in server
// count, equal to rho at k = 1, saturating to 1 at a >= k, and matching
// the extended-precision reference ratio.
func TestErlangCProperties(t *testing.T) {
	for _, k := range []int{1, 2, 4, 16, 64} {
		prev := -1.0
		for frac := 0.02; frac < 1; frac += 0.02 {
			a := frac * float64(k)
			c := ErlangC(k, a)
			if c < 0 || c > 1 {
				t.Fatalf("ErlangC(%d, %g) = %g outside [0,1]", k, a, c)
			}
			if c < prev {
				t.Fatalf("ErlangC(%d, %g) = %g decreased from %g (offered-load monotonicity)", k, a, c, prev)
			}
			prev = c
			if ref := erlangCReference(k, a); math.Abs(c-ref) > 1e-12*math.Max(1, ref) {
				t.Fatalf("ErlangC(%d, %g) = %.17g, reference %.17g", k, a, c, ref)
			}
		}
		if got := ErlangC(k, float64(k)); got != 1 {
			t.Errorf("ErlangC(%d, k) = %g, want saturation to 1", k, got)
		}
	}
	for _, a := range []float64{0.3, 0.9} {
		if got := ErlangC(1, a); math.Abs(got-a) > 1e-12 {
			t.Errorf("ErlangC(1, %g) = %.17g, want a", a, got)
		}
	}
	// At fixed per-server utilization, pooling more servers strictly
	// reduces the chance of waiting (economies of scale).
	for _, rho := range []float64{0.3, 0.7, 0.95} {
		prev := 2.0
		for _, k := range []int{1, 2, 4, 8, 32} {
			c := ErlangC(k, rho*float64(k))
			if c >= prev {
				t.Errorf("ErlangC at rho=%g not decreasing in k: C(%d)=%g, previous %g", rho, k, c, prev)
			}
			prev = c
		}
	}
	if got := ErlangC(4, 0); got != 0 {
		t.Errorf("ErlangC(4, 0) = %g", got)
	}
	if got := ErlangB(0, 1); got != 0 {
		t.Errorf("ErlangB(0, 1) = %g", got)
	}
}
