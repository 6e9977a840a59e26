// Package queueing implements the M/D/1 queueing model of Section II-B:
// jobs arrive Poisson with rate λ_job, are served in FIFO order by the
// cluster with a deterministic service time T_P, and the cluster
// utilization is U = T_P·λ_job. The package provides the exact
// waiting-time distribution (Crommelin's formula), response-time
// percentiles, a Lindley-recursion Monte-Carlo simulator used for
// cross-validation, and an M/M/1 reference model.
//
// The distribution kernel is all float64 and built for sweeps. WaitCDF
// sums Crommelin's formula (the body) while its alternating terms
// provably cancel within float64 headroom, and the root expansion of the
// tail over the roots of rho*(e^z - 1) = z past that point; crommelin.go
// states the hand-off bound. WaitPercentile solves on the normalized
// queue — W/D depends only on rho — at rho rounded onto a fixed lattice
// (quantizeRho). The solve is closed form in the first segment and in
// the far tail, and a few safeguarded Newton steps on ln(1 - F)
// elsewhere, with the density from the same pass. It keeps no state
// between calls. math/big serves only the reference oracle.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// MD1 is an M/D/1 queue: Poisson arrivals at rate Lambda, deterministic
// service time D.
type MD1 struct {
	// Lambda is the arrival rate (jobs per second).
	Lambda float64
	// D is the deterministic service time (seconds).
	D float64
}

// NewMD1FromUtilization builds the queue for a target utilization
// rho = Lambda*D, the way the paper sweeps utilization ("we simulate the
// impact of utilization on the server or cluster by varying the arrival
// rate").
func NewMD1FromUtilization(rho, serviceTime float64) (MD1, error) {
	if !finitePositive(serviceTime) {
		return MD1{}, errServiceTime
	}
	if !(rho >= 0 && rho < 1) {
		return MD1{}, fmt.Errorf("queueing: utilization %g outside [0, 1)", rho)
	}
	return MD1{Lambda: rho / serviceTime, D: serviceTime}, nil
}

// Name returns the kernel registry name.
func (q MD1) Name() string { return "md1" }

// Validate checks queue parameters for stability.
func (q MD1) Validate() error {
	if !finitePositive(q.D) {
		return errServiceTime
	}
	if !(q.Lambda >= 0) {
		return errors.New("queueing: negative or NaN arrival rate")
	}
	if !(q.Rho() < 1) {
		return fmt.Errorf("queueing: unstable queue, rho = %g >= 1", q.Rho())
	}
	return nil
}

// Rho returns the utilization Lambda*D.
func (q MD1) Rho() float64 { return q.Lambda * q.D }

// MeanWait returns the Pollaczek-Khinchine mean queueing delay
// rho*D / (2*(1-rho)).
func (q MD1) MeanWait() float64 {
	rho := q.Rho()
	return rho * q.D / (2 * (1 - rho))
}

// MeanResponse returns the mean sojourn time (wait plus service).
func (q MD1) MeanResponse() float64 { return q.MeanWait() + q.D }

// WaitCDF returns P(W <= t), the probability an arriving job waits at
// most t before service begins. Crommelin's classical formula
//
//	P(W <= t) = (1-rho) * sum_{j=0}^{k} [lambda(jD - t)]^j / j! * e^{-lambda(jD - t)}
//
// with k = floor(t/D) serves small rho*t/D; past the point where its
// alternating terms would cancel beyond float64 headroom, the root
// expansion of the tail takes over (see crommelin.go and roots.go).
func (q MD1) WaitCDF(t float64) float64 {
	d := md1Dist{rho: q.Rho()}
	if d.rho >= 1 {
		return 0
	}
	return d.cdf(t / q.D)
}

// WaitPercentile returns the p-th percentile (p in [0,100)) of the
// waiting time. M/D/1 is scale free in D at fixed rho — W/D depends only
// on the utilization — so the search runs on the normalized queue (D=1)
// at the lattice point of rho, and the result is rescaled by D.
func (q MD1) WaitPercentile(p float64) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if !(p >= 0 && p < 100) {
		return 0, fmt.Errorf("queueing: percentile %g outside [0, 100)", p)
	}
	instruments().searches.Inc()
	target := p / 100
	rho := q.Rho()
	// The distribution has the atom P(W = 0) = 1-rho.
	if 1-rho >= target {
		return 0, nil
	}
	return md1Percentile(quantizeRho(rho), target) * q.D, nil
}

// rhoQuantBits is the rho lattice: 2^-40 ≈ 9.1e-13.
const rhoQuantBits = 40

// quantizeRho rounds rho to the nearest multiple of 2^-rhoQuantBits
// before a percentile solve. Two utilizations that differ only in
// float64 round-off (0.7 given directly versus recovered as lambda*D)
// then solve at the same point and answer the same bits, as every
// served and golden percentile has since the lattice was introduced.
// The rounding moves a percentile by about 2^-40/(1-rho) relative, so
// past rho ≈ 0.9909, where that exceeds 1e-10, rho is left exact; the
// extremes where rounding would cross 0 or 1 are left exact too.
func quantizeRho(rho float64) float64 {
	const scale = 1 << rhoQuantBits
	if (1-rho)*1e-10*scale < 1 {
		return rho
	}
	q := math.Round(rho*scale) / scale
	if q <= 0 {
		return rho
	}
	return q
}

// ResponsePercentile returns the p-th percentile of the sojourn time.
// With deterministic service the sojourn is wait + D exactly.
func (q MD1) ResponsePercentile(p float64) (float64, error) {
	w, err := q.WaitPercentile(p)
	if err != nil {
		return 0, err
	}
	return w + q.D, nil
}

// ResponseCDF returns P(R <= t) for the sojourn time R = W + D: zero
// below the service time, then the shifted waiting-time CDF.
func (q MD1) ResponseCDF(t float64) float64 {
	if t < q.D {
		return 0
	}
	return q.WaitCDF(t - q.D)
}

// MM1 is an M/M/1 reference queue: Poisson arrivals, exponential service
// with mean D. Used by the ablation benches to show the sensitivity of
// the paper's percentile analysis to the deterministic-service
// assumption.
type MM1 struct {
	Lambda float64
	D      float64 // mean service time
}

// Rho returns the utilization.
func (q MM1) Rho() float64 { return q.Lambda * q.D }

// MeanResponse returns D/(1-rho).
func (q MM1) MeanResponse() float64 {
	return q.D / (1 - q.Rho())
}

// WaitPercentile returns the p-th percentile of the M/M/1 waiting time
// in closed form: the distribution has the atom P(W = 0) = 1-rho, above
// which P(W <= t) = 1 - rho*e^{-(1-rho)t/D}. The cross-kernel limit
// tests pin M/G/1@SCV=1 and M/M/k@k=1 to this.
func (q MM1) WaitPercentile(p float64) (float64, error) {
	rho := q.Rho()
	if !(rho < 1) || !finitePositive(q.D) {
		return 0, errors.New("queueing: unstable M/M/1")
	}
	if !(p >= 0 && p < 100) {
		return 0, fmt.Errorf("queueing: percentile %g outside [0, 100)", p)
	}
	target := p / 100
	if 1-rho >= target {
		return 0, nil
	}
	return math.Log(rho/(1-target)) * q.D / (1 - rho), nil
}

// ResponsePercentile returns the p-th percentile of the M/M/1 sojourn
// time, which is exponential with rate (1-rho)/D.
func (q MM1) ResponsePercentile(p float64) (float64, error) {
	rho := q.Rho()
	if !(rho < 1) || !finitePositive(q.D) {
		return 0, errors.New("queueing: unstable M/M/1")
	}
	if !(p >= 0 && p < 100) {
		return 0, fmt.Errorf("queueing: percentile %g outside [0, 100)", p)
	}
	return -math.Log(1-p/100) * q.D / (1 - rho), nil
}
