package queueing

import (
	"errors"
	"fmt"
	"math"
)

// MG1 is a two-moment M/G/1 queue: Poisson arrivals at rate Lambda,
// general service with mean D and squared coefficient of variation SCV.
// The mean wait is the exact Pollaczek-Khinchine delay
// rho*D*(1+SCV)/(2*(1-rho)) for every SCV; the distribution is an
// interpolation anchored at the two exactly-known endpoints:
//
//   - SCV = 0 delegates to the M/D/1 Crommelin kernel (exact), so the
//     default model is reproduced bit-for-bit.
//   - SCV = 1 is the exact M/M/1 closed form.
//   - 0 < SCV < 1 uses the CDF mixture (1-SCV)*F_MD1 + SCV*F_MM1, whose
//     mean is exactly the P-K delay (E[W_MM1] = 2*E[W_MD1]) and which is
//     pointwise monotone in SCV because F_MD1 >= F_MM1 everywhere.
//   - SCV > 1 uses the standard heavy-traffic exponential tail
//     P(W > t) = rho*e^{-t/theta} with theta = E[W]/rho, continuous with
//     the mixture at SCV = 1 and again mean-exact.
//
// The conformance suite pins the endpoints to the exact kernels and the
// interpolated regimes to DES simulation at documented tolerances.
type MG1 struct {
	// Lambda is the arrival rate (jobs per second).
	Lambda float64
	// D is the mean service time (seconds).
	D float64
	// SCV is the squared coefficient of variation Var[S]/E[S]^2 of the
	// service time: 0 deterministic, 1 exponential, >1 hyperexponential.
	SCV float64
}

// NewMG1FromUtilization builds the queue for a target utilization
// rho = Lambda*D at the given mean service time and service-time SCV.
func NewMG1FromUtilization(rho, serviceTime, scv float64) (MG1, error) {
	if !finitePositive(serviceTime) {
		return MG1{}, errServiceTime
	}
	if !(rho >= 0 && rho < 1) {
		return MG1{}, fmt.Errorf("queueing: utilization %g outside [0, 1)", rho)
	}
	q := MG1{Lambda: rho / serviceTime, D: serviceTime, SCV: scv}
	if err := q.Validate(); err != nil {
		return MG1{}, err
	}
	return q, nil
}

// Name returns the kernel registry name.
func (q MG1) Name() string { return "mg1" }

// Validate checks queue parameters for stability.
func (q MG1) Validate() error {
	if !finitePositive(q.D) {
		return errServiceTime
	}
	if !(q.Lambda >= 0) {
		return errors.New("queueing: negative or NaN arrival rate")
	}
	if q.SCV < 0 || math.IsInf(q.SCV, 0) || math.IsNaN(q.SCV) {
		return fmt.Errorf("queueing: scv %g must be finite and >= 0", q.SCV)
	}
	if !(q.Rho() < 1) {
		return fmt.Errorf("queueing: unstable queue, rho = %g >= 1", q.Rho())
	}
	return nil
}

// Rho returns the utilization Lambda*D.
func (q MG1) Rho() float64 { return q.Lambda * q.D }

// md1 returns the deterministic-service queue at the same load.
func (q MG1) md1() MD1 { return MD1{Lambda: q.Lambda, D: q.D} }

// MeanWait returns the exact Pollaczek-Khinchine mean queueing delay
// lambda*E[S^2]/(2*(1-rho)) = rho*D*(1+SCV)/(2*(1-rho)).
func (q MG1) MeanWait() float64 {
	rho := q.Rho()
	return rho * q.D * (1 + q.SCV) / (2 * (1 - rho))
}

// MeanResponse returns the mean sojourn time. Exact in every SCV
// regime: both the mixture and the exponential-tail branch reproduce
// MeanWait + D.
func (q MG1) MeanResponse() float64 { return q.MeanWait() + q.D }

// tailTheta returns the time constant D*(1+SCV)/(2*(1-rho)) of the
// SCV >= 1 exponential wait tail, chosen so that rho*theta equals the
// exact P-K mean wait.
func (q MG1) tailTheta() float64 {
	return q.D * (1 + q.SCV) / (2 * (1 - q.Rho()))
}

// mm1WaitCDF is the exact M/M/1 waiting-time CDF 1 - rho*e^{-(1-rho)t/d}.
func mm1WaitCDF(rho, d, t float64) float64 {
	if t < 0 {
		return 0
	}
	return 1 - rho*math.Exp(-(1-rho)*t/d)
}

// WaitCDF returns P(W <= t) under the two-moment interpolation.
func (q MG1) WaitCDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	rho := q.Rho()
	if rho >= 1 {
		return 0
	}
	switch {
	case q.SCV <= 0:
		return q.md1().WaitCDF(t)
	case q.SCV < 1:
		return (1-q.SCV)*q.md1().WaitCDF(t) + q.SCV*mm1WaitCDF(rho, q.D, t)
	default:
		return 1 - rho*math.Exp(-t/q.tailTheta())
	}
}

// ResponseCDF returns P(R <= t) for the sojourn time. The mixture
// branch mixes the component sojourn CDFs; the SCV >= 1 branch uses the
// exponential tail 1 - beta*e^{-t/theta} sharing the wait tail's time
// constant with beta = rho + 2*(1-rho)/(1+SCV), which keeps R
// stochastically no smaller than W, reduces to the exact M/M/1 sojourn
// at SCV = 1, and reproduces the exact mean response.
func (q MG1) ResponseCDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	rho := q.Rho()
	if rho >= 1 {
		return 0
	}
	switch {
	case q.SCV <= 0:
		return q.md1().ResponseCDF(t)
	case q.SCV < 1:
		fm := 1 - math.Exp(-(1-rho)*t/q.D)
		return (1-q.SCV)*q.md1().ResponseCDF(t) + q.SCV*fm
	default:
		beta := rho + 2*(1-rho)/(1+q.SCV)
		v := 1 - beta*math.Exp(-t/q.tailTheta())
		if v < 0 {
			return 0
		}
		return v
	}
}

// WaitPercentile returns the p-th percentile (p in [0,100)) of the
// waiting time. Like M/D/1, the model is scale free in D at fixed rho,
// so mixture solves run on the normalized queue at the lattice point of
// rho (quantizeRho).
func (q MG1) WaitPercentile(p float64) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if q.SCV <= 0 {
		return q.md1().WaitPercentile(p)
	}
	if !(p >= 0 && p < 100) {
		return 0, fmt.Errorf("queueing: percentile %g outside [0, 100)", p)
	}
	instruments().searches.Inc()
	target := p / 100
	rho := q.Rho()
	// Every branch keeps the atom P(W = 0) = 1-rho.
	if 1-rho >= target {
		return 0, nil
	}
	if q.SCV >= 1 {
		// Closed-form exponential tail; no search.
		return q.tailTheta() * math.Log(rho/(1-target)), nil
	}
	return mg1WaitPercentile(quantizeRho(rho), q.SCV, target) * q.D, nil
}

// mg1WaitPercentile solves the mixture CDF for the normalized (D = 1)
// wait percentile at 0 < scv < 1 and 1-rho < target < 1. The component
// percentiles bracket the mixture exactly: F_MD1 >= F_mix >= F_MM1
// pointwise, so the M/D/1 percentile is a lower bound and the M/M/1
// closed form an upper one. Newton on ln(1 - F_mix) starts at the lower
// bound, with the M/D/1 density from the evaluator's own pass plus the
// M/M/1 term. Where rho's lattice point puts target inside the atom at
// zero, both bounds, and so the answer, are 0.
func mg1WaitPercentile(rho, scv, target float64) float64 {
	c := 1 - rho
	d := md1Dist{rho: rho}
	lo := d.percentile(target)
	hi := math.Log(rho/(1-target)) / c
	if lo >= hi {
		return lo
	}
	return solveTail(func(t float64) (float64, float64) {
		_, qd, fd := d.at(t)
		qm := scv * rho * math.Exp(-c*t) // scv * P(W_MM1 > t)
		return (1-scv)*qd + qm, (1-scv)*fd + c*qm
	}, math.Log1p(-target), lo, lo, hi)
}

// ResponsePercentile returns the p-th percentile of the sojourn time.
func (q MG1) ResponsePercentile(p float64) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if q.SCV <= 0 {
		return q.md1().ResponsePercentile(p)
	}
	if !(p >= 0 && p < 100) {
		return 0, fmt.Errorf("queueing: percentile %g outside [0, 100)", p)
	}
	instruments().searches.Inc()
	target := p / 100
	if target <= 0 {
		return 0, nil
	}
	rho := q.Rho()
	if q.SCV >= 1 {
		beta := rho + 2*(1-rho)/(1+q.SCV)
		if 1-beta >= target {
			return 0, nil
		}
		return q.tailTheta() * math.Log(beta/(1-target)), nil
	}
	return mg1ResponsePercentile(quantizeRho(rho), q.SCV, target) * q.D, nil
}

// mg1ResponsePercentile solves the mixture sojourn CDF on the
// normalized queue at 0 < scv < 1 and 0 < target < 1. Below the service
// time only the exponential component has mass, so the percentile is
// closed form there; the M/D/1 wait's atom puts a jump at t = 1. Past
// it, Newton on ln(1 - F_mix) runs between the component percentiles,
// which bracket the mixture (both components have reached target at
// the larger one and neither at the smaller), from the smaller one.
func mg1ResponsePercentile(rho, scv, target float64) float64 {
	c := 1 - rho
	f1 := -scv * math.Expm1(-c) // F(1-)
	if target <= f1 {
		return -math.Log1p(-target/scv) / c
	}
	if target <= f1+(1-scv)*c { // F(1)
		return 1
	}
	d := md1Dist{rho: rho}
	wd := 1 + d.percentile(target) // M/D/1 sojourn percentile
	wm := -math.Log1p(-target) / c // M/M/1 sojourn percentile
	lo, hi := math.Max(1, math.Min(wd, wm)), math.Max(wd, wm)
	if lo >= hi {
		return lo
	}
	return solveTail(func(t float64) (float64, float64) {
		_, qd, fd := d.at(t - 1)
		qm := scv * math.Exp(-c*t) // scv * P(R_MM1 > t)
		return (1-scv)*qd + qm, (1-scv)*fd + c*qm
	}, math.Log1p(-target), lo, lo, hi)
}
