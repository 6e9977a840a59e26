package queueing

import (
	"math"
	"math/cmplx"
)

// This file holds the tail evaluator: the root expansion of the M/D/1
// wait (Janssen & van Leeuwaarden, Statistica Neerlandica 2008; Franx,
// Oper. Res. Lett. 2001). On the normalized queue,
//
//	P(W > t) = sum_k C_k * e^{-z_k*t},  C_k = (1-rho)/(rho*e^{z_k} - 1),
//
// over the nonzero roots of rho*(e^z - 1) = z. At a root,
// rho*e^{z_k} - 1 = z_k - (1-rho). The roots are:
//
//   - gamma > 0, real: the Cramér–Lundberg coefficient. Its term alone
//     gives the closed-form start t_p = ln(C0/(1-p))/gamma;
//   - conjugate pairs z_k, conj(z_k) for k >= 1, with Im z_k in
//     (2πk, 2πk + π/2) and e^{Re z_k} = |1 + z_k/rho| >= 2πk/rho - 1.
//
// Truncation bound. |C_k| <= (1-rho)/(2πk) and
// |e^{-z_k*t}| <= (2πk/rho - 1)^{-t}, so the pairs past the K-th add at
// most
//
//	R_K <= (1-rho)/(π*t) * (rho/(2πK - rho))^t             (K >= 1)
//	R_0 <= (1-rho)/π * (rho/(2π - rho))^t * (1 + 1/t)
//
// The tail keeps the fewest pairs with R_K <= tailTol*min(1-rho, Q0),
// where Q0 = C0*e^{-gamma*t} is the dominant term. Since F >= 1-rho,
// that holds both F and 1-F to tailTol relative. At the body hand-off
// (t >= 4.85 for every rho) it takes at most 28 pairs.

// tailTol is the tail's relative truncation budget.
const tailTol = 1e-12

// maxPairs caps the conjugate pairs one evaluation sums; the hand-off
// keeps the tail where 28 suffice (TestTailPairsAtHandOff).
const maxPairs = 32

// dominant solves gamma and C0 once per md1Dist. With y = (1-rho)/rho,
// gamma solves s(z) = (e^z - 1 - z)/z = y: s(z) = z/2 + z^2/6 + ... and y
// are both formed without cancellation, so gamma keeps full relative
// precision as rho -> 1, where the naive rho*(e^z - 1) - z loses
// -log10(1-rho) digits. C0's denominator rho*e^gamma - 1 is formed as
// rho*expm1(gamma) - (1-rho) for the same reason.
func (d *md1Dist) dominant() {
	if d.gamma > 0 {
		return
	}
	rho, c := d.rho, 1-d.rho
	y := c / rho
	z := 2 * y
	if y < 0.5 {
		// Series reversion of s(z) = y starts within 2.5% of gamma;
		// Newton on the convex s finishes in at most three steps.
		z = y * (2 - y*(4.0/3-y*(10.0/9-y*136.0/135)))
		for range 8 {
			s, ds := expSeriesRatio(z)
			dz := (s - y) / ds
			z -= dz
			if math.Abs(dz) <= 1e-8*z {
				break
			}
		}
	} else {
		// Here gamma > 0.75: Newton on z - ln(1 + z/rho), convex,
		// increasing and nearly linear, descends from an upper bound with
		// no exponential to overflow. 2y bounds gamma (s(z) >= z/2), and
		// one fixed-point step z -> ln(1 + z/rho) keeps a bound while
		// bringing it within ~2x of gamma at any rho; Newton from 2y
		// itself would round to the trivial root 0 once 2y >> ln(2y/rho).
		lr := math.Log(rho)
		z = math.Log(rho+math.Min(z, math.MaxFloat64)) - lr
		for range 64 {
			dz := (z - math.Log(rho+z) + lr) / (1 - 1/(rho+z))
			z -= dz
			if math.Abs(dz) <= 1e-8*z {
				break
			}
		}
	}
	d.gamma = z
	d.c0 = c / (rho*math.Expm1(z) - c)
}

// seriesCoef[m] = 1/(m+2)!, the Taylor coefficients of s(z)/z.
var seriesCoef = func() (a [20]float64) {
	f := 1.0
	for m := range a {
		f /= float64(m + 2)
		a[m] = f
	}
	return a
}()

// expSeriesRatio returns s(z) = (e^z - 1 - z)/z = sum_{n>=1} z^n/(n+1)!
// and its derivative for 0 < z <= 1, where the closed form cancels; the
// truncated terms are below 1/22! < 1e-21 there.
func expSeriesRatio(z float64) (s, ds float64) {
	for m := len(seriesCoef) - 1; m >= 0; m-- {
		s = s*z + seriesCoef[m]
		ds = ds*z + float64(m+1)*seriesCoef[m]
	}
	return s * z, ds
}

// pairsFor returns the conjugate pairs the tail needs at t, from the
// truncation bound above.
func (d *md1Dist) pairsFor(t float64) int {
	rho, c := d.rho, 1-d.rho
	lb := math.Log(tailTol) + math.Min(0, math.Log(d.c0/c)-d.gamma*t) // ln(tailTol*min(1, Q0/c))
	if t*math.Log(rho/(2*math.Pi-rho))+math.Log1p(1/t)-math.Log(math.Pi) <= lb {
		return 0
	}
	k := math.Ceil(rho * (1 + math.Exp(-(lb+math.Log(math.Pi*t))/t)) / (2 * math.Pi))
	if !(k < maxPairs) {
		return maxPairs
	}
	return int(k)
}

// ensurePairs solves the conjugate roots up to the n-th, in order. Each
// root is Newton on z - Log(1 + z/rho) - 2πik, started for k = 1 from
// one fixed-point step off the log branch and for k > 1 from the
// previous root shifted by ln(k/(k-1)) + 2πi. Solving in order keeps
// every root, and so every evaluation, independent of which t asked
// first.
func (d *md1Dist) ensurePairs(n int) {
	rho := complex(d.rho, 0)
	for k := d.n; k < n; k++ {
		branch := complex(0, 2*math.Pi*float64(k+1))
		var z complex128
		if k == 0 {
			z = cmplx.Log(1+(branch+complex(0, math.Pi/2))/rho) + branch
		} else {
			z = d.z[k-1] + complex(math.Log(float64(k+1)/float64(k)), 2*math.Pi)
		}
		for range 32 {
			w := rho + z
			dz := (z - cmplx.Log(w/rho) - branch) / (1 - 1/w)
			z -= dz
			if cmplx.Abs(dz) <= 1e-8*cmplx.Abs(z) {
				break
			}
		}
		d.z[k] = z
		d.c[k] = complex(1-d.rho, 0) / (z - complex(1-d.rho, 0))
	}
	d.n = max(d.n, n)
}

// tailEval returns P(W > t) and the density f(t) = -dP(W > t)/dt by the
// root expansion, summing the pairs t needs.
func (d *md1Dist) tailEval(t float64) (tail, pdf float64) {
	d.dominant()
	q0 := d.c0 * math.Exp(-d.gamma*t)
	if q0 == 0 {
		// Every pair decays faster than the dominant term (Re z_k >
		// gamma), so the whole tail is below the float64 range too.
		return 0, 0
	}
	n := d.pairsFor(t)
	d.ensurePairs(n)
	tail, pdf = q0, d.gamma*q0
	for k := range n {
		e := d.c[k] * cmplx.Exp(complex(-t, 0)*d.z[k])
		tail += 2 * real(e)
		pdf += 2 * real(e*d.z[k])
	}
	return tail, pdf
}
