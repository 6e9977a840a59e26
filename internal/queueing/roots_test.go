package queueing

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"
	"testing"
	"time"
)

// accuracyRhos are the utilizations of the float64 kernel's
// differential tests, from light load to within 1e-3 of saturation.
var accuracyRhos = []float64{0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999}

// extremeInputs are (u, p) pairs near saturation that once ran for
// seconds to minutes, or panicked, in the big.Float kernel.
var extremeInputs = [][2]float64{
	{0.999, 99},
	{0.9995, 99},
	{0.9999999, 99.9999},
	{0.99999999999, 99.99999999},
}

// handOff returns t_h(rho), where the body gate flips, by bisection on
// the monotone gate.
func handOff(rho float64) float64 {
	lo, hi := 0.0, 1e6
	for range 200 {
		m := lo + (hi-lo)/2
		if inBody(rho, m) {
			lo = m
		} else {
			hi = m
		}
	}
	return hi
}

// dominantRootReference solves rho*(e^z - 1) = z for its positive root
// by big.Float bisection and forms C0 = (1-rho)/(rho*e^gamma - 1) in
// the same precision: the oracle for the tail's closed-form terms.
func dominantRootReference(rho float64) (gamma, c0 float64) {
	const prec = 256
	bf := func(x float64) *big.Float { return new(big.Float).SetPrec(prec).SetFloat64(x) }
	one, rb := bf(1), bf(rho)
	phi := func(z *big.Float) *big.Float { // rho*(e^z - 1) - z
		v := new(big.Float).SetPrec(prec).Sub(bigExpBig(z, prec), one)
		v.Mul(v, rb)
		return v.Sub(v, z)
	}
	lo, hi := bf(0), bf(4*(1-rho)/rho) // phi < 0 on (0, gamma), > 0 past it
	mid := new(big.Float).SetPrec(prec)
	for range 400 {
		mid.Add(lo, hi)
		mid.Quo(mid, bf(2))
		if phi(mid).Sign() < 0 {
			lo.Set(mid)
		} else {
			hi.Set(mid)
		}
	}
	den := new(big.Float).SetPrec(prec).Mul(rb, bigExpBig(lo, prec))
	den.Sub(den, one)
	c := new(big.Float).SetPrec(prec).Sub(one, rb)
	gamma, _ = lo.Float64()
	c0, _ = c.Quo(c, den).Float64()
	return gamma, c0
}

// TestWaitCDFAcrossHandOff pins WaitCDF against the extended-precision
// oracle within 1e-9 on a (rho, t/D) grid that straddles t = D, every
// integer up to the body/tail hand-off, and the hand-off itself, at two
// service times. It compares F, not 1 - F: the oracle rounds F to
// float64, so its own 1 - F has an absolute floor near 1e-16.
func TestWaitCDFAcrossHandOff(t *testing.T) {
	const delta = 1e-9
	for _, rho := range accuracyRhos {
		th := handOff(rho)
		if !inBody(rho, th-delta) || inBody(rho, th+delta) {
			t.Fatalf("rho=%g: t_h=%g does not straddle the gate", rho, th)
		}
		ts := []float64{th - delta, th + delta, th + 0.5, 1.5 * th, th + 10}
		for k := 1; float64(k) < th; k++ {
			ts = append(ts, float64(k)-delta, float64(k), float64(k)+delta, float64(k)+0.5)
		}
		for _, d := range []float64{1, 2.5} {
			q := MD1{Lambda: rho / d, D: d}
			for _, x := range ts {
				got, want := q.WaitCDF(x*d), q.waitCDFReference(x*d)
				if relOrAbs(got, want) > 1e-9 {
					t.Errorf("rho=%g D=%g t/D=%.12g (t_h=%.6g): F %.16g vs reference %.16g (rel %.2e)",
						rho, d, x, th, got, want, relOrAbs(got, want))
				}
			}
		}
	}
}

// TestWaitPercentileAcrossHandOff pins the percentile solve against the
// oracle within 1e-9 relative. Where lambda*w <= 40 it is the reference
// bisection itself. Up to lambda*w = 400 a reference CDF call costs
// 20-150 ms, so the oracle brackets w within 1e-9 instead of bisecting.
// Past that the oracle costs seconds per call and, past lambda*t ~ 2,650,
// exceeds its precision cap. There t/D > 400 and Re z_1 - gamma > 1.5,
// so the pairs are below e^{-600} of the dominant term, and w is pinned
// to the closed form on the big.Float root.
func TestWaitPercentileAcrossHandOff(t *testing.T) {
	check := func(rho, p float64) {
		target := p / 100
		got := md1Percentile(rho, target)
		q := MD1{Lambda: rho, D: 1}
		switch lw := rho * got; {
		case lw <= 40:
			want, err := q.waitPercentileReference(p)
			if err != nil {
				t.Fatal(err)
			}
			if relOrAbs(got, want) > 1e-9 {
				t.Errorf("rho=%g p%g: w %.15g vs reference %.15g", rho, p, got, want)
			}
		case lw <= 400:
			below, above := q.waitCDFReference(got*(1-1e-9)), q.waitCDFReference(got*(1+1e-9))
			if !(below < target && target <= above) {
				t.Errorf("rho=%g p%g: w %.15g not within 1e-9 of the reference: F(w-) %.16g, F(w+) %.16g",
					rho, p, got, below, above)
			}
		default:
			gamma, c0 := dominantRootReference(rho)
			if want := math.Log(c0/(1-target)) / gamma; relOrAbs(got, want) > 1e-9 {
				t.Errorf("rho=%g p%g: w %.15g vs dominant-root closed form %.15g", rho, p, got, want)
			}
		}
	}
	for _, rho := range accuracyRhos {
		for _, p := range []float64{50, 90, 95, 99, 99.9} {
			if 1-rho < p/100 {
				check(rho, p)
			}
		}
	}
	for _, in := range extremeInputs {
		check(quantizeRho(in[0]), in[1])
	}
}

// TestDominantRootPrecision: gamma and C0 keep full precision up to
// rho -> 1, where the naive rho*(e^z - 1) - z loses -log10(1-rho)
// digits.
func TestDominantRootPrecision(t *testing.T) {
	for _, rho := range []float64{1e-6, 0.05, 0.3, 0.5, 0.9, 0.999, 0.9999999, 1 - 1e-12} {
		d := md1Dist{rho: rho}
		d.dominant()
		gamma, c0 := dominantRootReference(rho)
		if relOrAbs(d.gamma, gamma) > 1e-14 || relOrAbs(d.c0, c0) > 1e-14 {
			t.Errorf("rho=%g: gamma %.17g vs %.17g (rel %.1e), C0 %.17g vs %.17g (rel %.1e)",
				rho, d.gamma, gamma, relOrAbs(d.gamma, gamma), d.c0, c0, relOrAbs(d.c0, c0))
		}
	}
}

// TestWaitCDFExtremes: the CDF keeps its limits at any utilization,
// including where the tail underflows and rho is far below any served
// load.
func TestWaitCDFExtremes(t *testing.T) {
	for _, rho := range []float64{1e-300, 1e-12, 0.5, 1 - 1e-15} {
		q := MD1{Lambda: rho, D: 1}
		if got := q.WaitCDF(-1); got != 0 {
			t.Errorf("rho=%g: F(-1) = %g, want 0", rho, got)
		}
		if got := q.WaitCDF(0); got != 1-rho {
			t.Errorf("rho=%g: F(0) = %g, want the atom %g", rho, got, 1-rho)
		}
		for _, x := range []float64{1e300, math.Inf(1)} {
			if got := q.WaitCDF(x); got != 1 {
				t.Errorf("rho=%g: F(%g) = %g, want 1", rho, x, got)
			}
		}
	}
}

// TestTailPairsAtHandOff: across utilizations, the tail needs at most
// 28 pairs where it takes over (the cap is maxPairs), the hand-off never
// falls below t/D = 4.85, and dropping the pairs past the chosen count
// moves the tail by less than the stated budget.
func TestTailPairsAtHandOff(t *testing.T) {
	rhos := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.97, 0.99}
	for c := 1e-3; c > 1e-15; c /= 10 {
		rhos = append(rhos, 1-c)
	}
	for _, rho := range rhos {
		th := handOff(rho)
		d := md1Dist{rho: rho}
		d.dominant()
		n := d.pairsFor(th)
		if n > 28 || th < 4.85 {
			t.Errorf("rho=%g: t_h=%g needs %d pairs (want t_h >= 4.85, <= 28 pairs)", rho, th, n)
		}
		tail, _ := d.tailEval(th)
		full := tail
		d.ensurePairs(maxPairs)
		for k := n; k < maxPairs; k++ {
			full += 2 * real(d.c[k]*cmplx.Exp(complex(-th, 0)*d.z[k]))
		}
		if diff := math.Abs(full - tail); diff > tailTol*math.Min(1-rho, full) {
			t.Errorf("rho=%g: truncation at %d pairs moves the tail by %.2e, over budget %.2e",
				rho, n, diff, tailTol*math.Min(1-rho, full))
		}
	}
}

// TestBatchScalarSameBitsAcrossReset: the solve is a pure function of
// (quantized rho, target), so a batch and scalar calls read the same
// bits whichever fills the cache, before and after a reset.
func TestBatchScalarSameBitsAcrossReset(t *testing.T) {
	resetPercentileCache()
	defer resetPercentileCache()
	ps := []float64{99.9, 50, 95, 90, 99}
	for _, rho := range accuracyRhos {
		q := MD1{Lambda: rho / 2.5, D: 2.5}
		batch, err := q.WaitPercentiles(ps)
		if err != nil {
			t.Fatal(err)
		}
		resetPercentileCache()
		for i, p := range ps {
			w, err := q.WaitPercentile(p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(w) != math.Float64bits(batch[i]) {
				t.Errorf("rho=%g p%g: scalar %.17g, batch %.17g", rho, p, w, batch[i])
			}
		}
	}
}

// TestColdSolveWallTime reports the worst cold percentile solve over the
// accuracy grid plus the near-saturation inputs, and holds it under
// 1 ms. Each solve is timed as the best of three, which keeps scheduler
// noise out of a bound that sits ~100x above the measured cost.
func TestColdSolveWallTime(t *testing.T) {
	var worst time.Duration
	var at string
	solve := func(rho, p float64) {
		best := time.Duration(math.MaxInt64)
		for range 3 {
			start := time.Now()
			benchSink = md1Percentile(rho, p/100)
			best = min(best, time.Since(start))
		}
		if best > worst {
			worst, at = best, fmt.Sprintf("rho=%g p%g", rho, p)
		}
	}
	for _, rho := range accuracyRhos {
		for _, p := range []float64{50, 90, 95, 99, 99.9} {
			if 1-rho < p/100 {
				solve(rho, p)
			}
		}
	}
	for _, in := range extremeInputs {
		solve(quantizeRho(in[0]), in[1])
	}
	t.Logf("worst cold solve: %v at %s", worst, at)
	if worst > time.Millisecond {
		t.Errorf("worst cold solve %v at %s, want under 1ms", worst, at)
	}
}
