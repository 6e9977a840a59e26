package queueing

import (
	"context"
	"math"
	"testing"

	"repro/internal/stats"
)

// relOrAbs compares with relative error where the reference is
// meaningfully nonzero, absolute error otherwise.
func relOrAbs(got, want float64) float64 {
	if math.Abs(want) > 1e-300 {
		return math.Abs(got-want) / math.Abs(want)
	}
	return math.Abs(got - want)
}

// TestWaitCDFMatchesReference pins the fast kernel — the incremental
// recurrence, its float64 fast path and the pooled scratch — against the
// original term-by-term extended-precision evaluation across a
// (rho, t/D, D) grid. The 1e-9 budget is the acceptance bound of the
// fast path; the big path agrees far tighter.
func TestWaitCDFMatchesReference(t *testing.T) {
	rhos := []float64{0.05, 0.2, 0.375, 0.5, 0.7, 0.85, 0.9, 0.95}
	ds := []float64{0.25, 1, 3.7}
	taus := []float64{0, 0.3, 0.5, 1, 1.5, 2, 2.5, 3, 5, 7.5, 10, 15, 20, 30, 40}
	for _, rho := range rhos {
		for _, d := range ds {
			q := MD1{Lambda: rho / d, D: d}
			for _, tau := range taus {
				x := tau * d
				got := q.WaitCDF(x)
				want := q.waitCDFReference(x)
				if relOrAbs(got, want) > 1e-9 {
					t.Errorf("rho=%g D=%g t/D=%g: fast %.15g vs reference %.15g",
						rho, d, tau, got, want)
				}
			}
		}
	}
}

// TestFloat64FastPathAccuracy drives the float64 body directly over its
// whole admissible region and checks the claimed 1e-9 bound against the
// extended-precision reference.
func TestFloat64FastPathAccuracy(t *testing.T) {
	covered := 0
	for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		q := MD1{Lambda: rho, D: 1}
		for _, x := range stats.Linspace(0, 12, 121) {
			if !inBody(rho, x/q.D) {
				continue
			}
			got, _ := bodyEval(rho, x/q.D)
			covered++
			want := q.waitCDFReference(x)
			if relOrAbs(got, want) > 1e-9 {
				t.Errorf("rho=%g t=%g: float64 path %.15g vs reference %.15g",
					rho, x, got, want)
			}
		}
	}
	if covered < 100 {
		t.Fatalf("fast path covered only %d grid points; gate is mis-tuned", covered)
	}
}

// TestWaitPercentileMatchesReference pins the cached regula-falsi search
// against the original bracket-and-bisect search on the reference CDF.
func TestWaitPercentileMatchesReference(t *testing.T) {
	for _, rho := range []float64{0.3, 0.6, 0.8, 0.92} {
		for _, d := range []float64{0.5, 1, 2.25} {
			q := MD1{Lambda: rho / d, D: d}
			for _, p := range []float64{50, 75, 90, 95, 99} {
				got, err := q.WaitPercentile(p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := q.waitPercentileReference(p)
				if err != nil {
					t.Fatal(err)
				}
				if relOrAbs(got, want) > 1e-8 {
					t.Errorf("rho=%g D=%g p%g: fast %.12g vs reference %.12g",
						rho, d, p, got, want)
				}
			}
		}
	}
}

// TestDScalingInvariance: WaitPercentile(p; lambda, D) must equal
// D * WaitPercentile(p; lambda*D, 1) — the scale invariance the
// normalized solve is built on.
func TestDScalingInvariance(t *testing.T) {
	for _, rho := range []float64{0.25, 0.6, 0.9} {
		for _, d := range []float64{0.125, 0.9, 4, 17.5} {
			for _, p := range []float64{70, 95, 99} {
				scaled := MD1{Lambda: rho / d, D: d}
				unit := MD1{Lambda: rho, D: 1}
				a, err := scaled.WaitPercentile(p)
				if err != nil {
					t.Fatal(err)
				}
				b, err := unit.WaitPercentile(p)
				if err != nil {
					t.Fatal(err)
				}
				if relOrAbs(a, d*b) > 1e-9 {
					t.Errorf("rho=%g D=%g p%g: %.12g != D*%.12g", rho, d, p, a, b)
				}
			}
		}
	}
}

// TestWaitPercentilesBatchMatchesSingle: the batch API must return
// exactly what per-entry calls return, in the input order, including
// out-of-order and duplicate percentiles and entries inside the atom.
func TestWaitPercentilesBatchMatchesSingle(t *testing.T) {
	q := MD1{Lambda: 0.82 / 1.3, D: 1.3}
	ps := []float64{95, 10, 99, 50, 95, 0, 80.5}
	batch, err := q.WaitPercentilesContext(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(ps) {
		t.Fatalf("batch returned %d values for %d percentiles", len(batch), len(ps))
	}
	for i, p := range ps {
		single, err := q.WaitPercentile(p)
		if err != nil {
			t.Fatal(err)
		}
		if relOrAbs(batch[i], single) > 1e-9 {
			t.Errorf("p%g: batch %.12g vs single %.12g", p, batch[i], single)
		}
	}
}

// TestResponsePercentilesBatch: the sojourn batch is the wait batch
// shifted by D.
func TestResponsePercentilesBatch(t *testing.T) {
	q := MD1{Lambda: 0.7, D: 1}
	ps := []float64{50, 95, 99}
	rs, err := q.ResponsePercentilesContext(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := q.WaitPercentilesContext(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if got, want := rs[i], ws[i]+q.D; got != want {
			t.Errorf("p%g: response %g, want wait+D = %g", ps[i], got, want)
		}
	}
}

// TestWaitPercentilesRejectsBadInput mirrors the single-query contract.
func TestWaitPercentilesRejectsBadInput(t *testing.T) {
	q := MD1{Lambda: 0.5, D: 1}
	if _, err := q.WaitPercentilesContext(context.Background(), []float64{50, 100}); err == nil {
		t.Error("expected error for p = 100")
	}
	if _, err := q.WaitPercentilesContext(context.Background(), []float64{-1}); err == nil {
		t.Error("expected error for negative percentile")
	}
	if _, err := (MD1{Lambda: 2, D: 1}).WaitPercentilesContext(context.Background(), []float64{50}); err == nil {
		t.Error("expected error for unstable queue")
	}
}

// TestQuantizeRho: the rho lattice must never round onto the unstable
// boundary or the empty queue, and leaves rho exact near saturation.
func TestQuantizeRho(t *testing.T) {
	for _, rho := range []float64{1e-16, 0.5, 1 - 1e-15} {
		q := quantizeRho(rho)
		if q <= 0 || q >= 1 {
			t.Errorf("quantizeRho(%g) = %g escapes (0,1)", rho, q)
		}
	}
	if got := quantizeRho(0.75); got != 0.75 {
		t.Errorf("exactly-representable rho moved: %g", got)
	}
	// Perturbations below the lattice spacing collapse onto one point.
	a, b := quantizeRho(0.7), quantizeRho(0.7+1e-15)
	if a != b {
		t.Errorf("adjacent rhos map to different points: %g vs %g", a, b)
	}
	// Past 0.9909 the lattice would move a percentile by over 1e-10.
	for _, rho := range []float64{0.9910 + 1e-15, 0.999, 1 - 1e-11} {
		if got := quantizeRho(rho); got != rho {
			t.Errorf("quantizeRho(%.17g) = %.17g, want rho exact", rho, got)
		}
	}
	if got := quantizeRho(0.9908 + 1e-15); got == 0.9908+1e-15 {
		t.Errorf("quantizeRho(0.9908+1e-15) left rho off the lattice")
	}
}
