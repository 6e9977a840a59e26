package queueing

import "math"

// This file holds the M/D/1 waiting-time distribution on the
// normalized queue (D = 1, lambda = rho; W/D depends only on rho), as
// two float64 evaluators chosen by a stated error bound on (rho, t):
//
//   - the body, Crommelin's finite sum, for small rho*t;
//   - the tail, the root expansion in roots.go, past it.
//
// The body is the classical formula
//
//	F(t) = (1-rho) * sum_{j=0}^{k} T_j,  T_j = x_j^j/j! * e^{-x_j},
//	x_j = rho*(j - t) <= 0,  k = floor(t)
//
// F is analytic on each segment [k, k+1). Its terms are built by
// recurrence: e^{-x_j} = e^{rho*t} * (e^{-rho})^j is carried forward
// from two exp calls per pass, and x_j^j/j! is a product of j factors.
// The density costs nothing extra. By the M/D/1 identity
// f(t) = rho*(F(t) - F(t-1)), and F(t-1)'s terms are G_j = T_j*j/x_j
// (x_j^{j-1}/(j-1)! * e^{-x_j}), the partial products of the same pass.
//
// Hand-off bound. The terms alternate in sign and cancel: |T_j| <=
// e^{2*|x_j|} <= e^{2*rho*t}, while S = F/(1-rho) >= F(0)/(1-rho) = 1.
// Each term is formed with O(j) roundings (relative error eps_term), so
// the pass carries an absolute error of at most about
// (J+2)*e^{2*rho*t}*eps_term on S, and that is also F's relative error,
// whatever rho is: (1-rho) multiplies F and S alike, so it must not
// appear in the gate a second time. J = min(k, bodyMaxTerms) counts the
// terms actually summed. The body serves t while
// 2*rho*t + ln(J+2) <= bodyLogBound, an amplification of at most 1e5;
// against the big.Float oracle it stays within 1.2e-13
// (TestWaitCDFAcrossHandOff).

// bodyLogBound is ln(1e5), the largest cancellation amplification the
// float64 body accepts.
const bodyLogBound = 11.5

// bodyMaxTerms truncates the body sum. Inside the gate rho*t <= 5.75,
// and |T_j| <= (rho*t)^j/j! * e^{rho*t}, so the terms past j = 48 add
// up to below 1e-22 of S >= 1: the sum stays O(min(k, 48)) however
// large k = floor(t) grows at small rho.
const bodyMaxTerms = 48

// lnTermCount[j] = ln(j+2), the gate's term-count factor.
var lnTermCount = func() (a [bodyMaxTerms + 1]float64) {
	for j := range a {
		a[j] = math.Log(float64(j + 2))
	}
	return a
}()

// bodyTerms returns J = min(floor(t), bodyMaxTerms), the index of the
// last term the body sums at t >= 0.
func bodyTerms(t float64) int {
	if t < bodyMaxTerms {
		return int(t)
	}
	return bodyMaxTerms
}

// inBody reports whether the body's cancellation bound holds at t.
// The condition is monotone in t, so the body serves [0, t_h(rho)).
func inBody(rho, t float64) bool {
	return 2*rho*t+lnTermCount[bodyTerms(t)] <= bodyLogBound
}

// bodyEval returns F(t) and f(t) for 0 <= t inside the body gate by one
// recurrence pass over Crommelin's terms.
func bodyEval(rho, t float64) (cdf, pdf float64) {
	e := math.Exp(rho * t) // e^{-x_j}, carried down by e^{-rho} per term
	step := math.Exp(-rho)
	s, s1 := e, 0.0 // sum T_j and sum G_j
	for j, n := 1, bodyTerms(t); j <= n; j++ {
		e *= step
		x := rho * (float64(j) - t)
		g := e // G_j = x^{j-1}/(j-1)! * e^{-x}
		for i := 1; i < j; i++ {
			g *= x / float64(i)
		}
		s1 += g
		s += g * x / float64(j)
	}
	c := 1 - rho
	return clamp01(c * s), rho * c * (s - s1)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// md1Dist evaluates the normalized M/D/1 wait distribution at one
// utilization 0 <= rho < 1, routing each t to the body or the tail. The
// tail's roots are solved lazily, once per md1Dist and only as many as
// the evaluated t need. A percentile solve or a CDF batch holds one
// md1Dist for its own lifetime, so root memory stays bounded by one
// solve's.
type md1Dist struct {
	rho       float64
	gamma, c0 float64 // dominant root and coefficient; 0 until needed
	n         int     // conjugate pairs solved so far
	z, c      [maxPairs]complex128
}

// at returns F(t), 1 - F(t) and f(t) for t >= 0. On the tail side the
// complement is the series itself, precise however small it gets. Each
// call is one evaluation of F and counts into queueing.wait_cdf_calls.
func (d *md1Dist) at(t float64) (cdf, tail, pdf float64) {
	instruments().cdfCalls.Inc()
	if inBody(d.rho, t) {
		cdf, pdf = bodyEval(d.rho, t)
		return cdf, 1 - cdf, pdf
	}
	tail, pdf = d.tailEval(t)
	return clamp01(1 - tail), tail, pdf
}

// cdf returns P(W <= t) on the normalized queue, for any t.
func (d *md1Dist) cdf(t float64) float64 {
	switch {
	case t < 0:
		return 0
	case d.rho <= 0:
		return 1
	}
	f, _, _ := d.at(t)
	return f
}

// md1Percentile returns the normalized wait w with F(w) = target, for
// 1-rho < target < 1. It is a pure function of (rho, target).
func md1Percentile(rho, target float64) float64 {
	d := md1Dist{rho: rho}
	return d.percentile(target)
}

// percentile is md1Percentile on d, whose tail roots a caller may share
// with later evaluations at the same rho.
//
// Segment 0 is closed form, F(t) = (1-rho)*e^{rho*t}. Past it, the
// solve is safeguarded Newton on ln(1 - F) (solveTail), with the
// density from the same pass. The start is one Newton step from t = 1,
// where F and f are closed form, while that lands in the body.
// Otherwise the dominant tail term gives the start,
// t0 = ln(C0/(1-p))/gamma, and where that term alone is exact to the
// tail tolerance at t0, t0 is the answer and no pass runs.
func (d *md1Dist) percentile(target float64) float64 {
	rho := d.rho
	c := 1 - rho
	f1 := c * math.Exp(rho) // F(1)
	if target <= f1 {
		return math.Log1p((target-c)/c) / rho
	}
	lq := math.Log1p(-target)
	q1 := 1 - f1
	t := 1 + q1*(math.Log(q1)-lq)/(rho*c*math.Expm1(rho)) // f(1) = rho*(F(1) - F(0))
	if !inBody(rho, t) {
		d.dominant()
		t = math.Max(1, (math.Log(d.c0)-lq)/d.gamma)
		if !inBody(rho, t) && d.pairsFor(t) == 0 {
			return t
		}
	}
	return solveTail(func(t float64) (float64, float64) {
		_, q, pdf := d.at(t)
		return q, pdf
	}, lq, t, 1, math.Inf(1))
}

// solveTail returns the t in (lo, hi) with ln Q(t) = lq, where at
// returns the complement Q = 1 - F and the density f of a continuous
// CDF there. It runs Newton on ln Q from t: ln Q is nearly linear in a
// queue's tail, so a few steps settle it. A step that leaves the
// bracket bisects it instead, or doubles lo while hi is unbounded. The
// first step shorter than 1e-8*t ends the solve.
func solveTail(at func(t float64) (q, pdf float64), lq, t, lo, hi float64) float64 {
	for range 100 {
		q, pdf := at(t)
		g := math.Log(q) - lq // > 0 while F(t) < target
		step := q * g / pdf
		if math.Abs(step) <= 1e-8*t {
			return t + step
		}
		if g > 0 {
			lo = t
		} else {
			hi = t
		}
		next := t + step
		if !(next > lo && next < hi) {
			if math.IsInf(hi, 1) {
				next = 2 * lo
			} else {
				next = lo + (hi-lo)/2
			}
		}
		t = next
	}
	return t
}
