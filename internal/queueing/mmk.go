package queueing

import (
	"errors"
	"fmt"
	"math"
)

// MMK is an M/M/k queue: Poisson arrivals at rate Lambda served FIFO by
// K parallel servers, each with exponential service of mean D. Unlike
// the interpolated M/G/1 kernel, every formula here is exact: the
// waiting time is the Erlang-C probability times an exponential,
// P(W > t) = C(k, a) * e^{-(k-a)t/D} with offered load a = Lambda*D,
// and the sojourn is its convolution with one exponential service.
//
// The kernel models a cluster of k wimpy nodes as one k-server queue
// rather than k independent single-server queues: Spec.Build spreads an
// aggregate service time over the k servers so total capacity and
// per-server utilization match the single-queue models at the same rho.
type MMK struct {
	// Lambda is the arrival rate (jobs per second).
	Lambda float64
	// D is the per-server mean service time (seconds).
	D float64
	// K is the number of servers.
	K int
}

// NewMMKFromUtilization builds the queue for a target per-server
// utilization rho from the aggregate service time (seconds per job with
// all k servers on it): each server serves a full job in k*serviceTime,
// preserving total capacity 1/serviceTime and making MMK at k = 1 the
// exact M/M/1 counterpart of the single-server kernels.
func NewMMKFromUtilization(rho, serviceTime float64, k int) (MMK, error) {
	if !finitePositive(serviceTime) {
		return MMK{}, errServiceTime
	}
	if k < 1 {
		return MMK{}, fmt.Errorf("queueing: mmk needs servers >= 1, got %d", k)
	}
	if !(rho >= 0 && rho < 1) {
		return MMK{}, fmt.Errorf("queueing: utilization %g outside [0, 1)", rho)
	}
	return MMK{Lambda: rho / serviceTime, D: serviceTime * float64(k), K: k}, nil
}

// Name returns the kernel registry name.
func (q MMK) Name() string { return "mmk" }

// Validate checks queue parameters for stability.
func (q MMK) Validate() error {
	if !finitePositive(q.D) {
		return errServiceTime
	}
	if q.K < 1 {
		return fmt.Errorf("queueing: mmk needs servers >= 1, got %d", q.K)
	}
	if !(q.Lambda >= 0) {
		return errors.New("queueing: negative or NaN arrival rate")
	}
	if !(q.Rho() < 1) {
		return fmt.Errorf("queueing: unstable queue, rho = %g >= 1", q.Rho())
	}
	return nil
}

// Offered returns the offered load a = Lambda*D in erlangs.
func (q MMK) Offered() float64 { return q.Lambda * q.D }

// Rho returns the per-server utilization a/k.
func (q MMK) Rho() float64 { return q.Offered() / float64(q.K) }

// ErlangB returns the Erlang-B blocking probability B(k, a) via the
// standard recurrence B(j) = a*B(j-1) / (j + a*B(j-1)), which is
// numerically stable for any load (no factorials, no overflow).
func ErlangB(k int, a float64) float64 {
	if k < 1 || a <= 0 {
		return 0
	}
	b := 1.0
	for j := 1; j <= k; j++ {
		b = a * b / (float64(j) + a*b)
	}
	return b
}

// ErlangC returns the Erlang-C delay probability C(k, a) = P(W > 0),
// derived from Erlang-B as C = B / (1 - (a/k)*(1-B)). For a >= k the
// queue is saturated and every job waits, so C = 1.
func ErlangC(k int, a float64) float64 {
	if k < 1 || a <= 0 {
		return 0
	}
	if a >= float64(k) {
		return 1
	}
	b := ErlangB(k, a)
	return b / (1 - a/float64(k)*(1-b))
}

// ErlangC returns the queue's delay probability P(W > 0).
func (q MMK) ErlangC() float64 { return ErlangC(q.K, q.Offered()) }

// waitRate returns the conditional-wait decay rate k*mu - lambda =
// (k - a)/D: given that a job waits, its wait is exponential with this
// rate.
func (q MMK) waitRate() float64 { return (float64(q.K) - q.Offered()) / q.D }

// MeanWait returns the exact mean queueing delay C(k,a) * D / (k - a).
func (q MMK) MeanWait() float64 {
	if q.Lambda == 0 {
		return 0
	}
	return q.ErlangC() / q.waitRate()
}

// MeanResponse returns the mean sojourn time (wait plus one service).
func (q MMK) MeanResponse() float64 { return q.MeanWait() + q.D }

// WaitCDF returns the exact P(W <= t) = 1 - C(k,a) * e^{-(k-a)t/D}.
func (q MMK) WaitCDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	if q.Rho() >= 1 {
		return 0
	}
	return 1 - q.ErlangC()*math.Exp(-q.waitRate()*t)
}

// ResponseCDF returns the exact P(R <= t) for the sojourn R = W + S:
// with probability 1-C the job starts immediately (R is one exponential
// service), otherwise R is the sum of the exponential conditional wait
// (rate omega = k*mu - lambda) and the service (rate mu), whose
// convolution tail is (omega*e^{-mu*t} - mu*e^{-omega*t})/(omega - mu).
// The degenerate case omega = mu (a = k-1) is the Erlang-2 tail
// e^{-mu*t}(1 + mu*t). At k = 1 the whole expression collapses to the
// M/M/1 sojourn e^{-(mu-lambda)t}.
func (q MMK) ResponseCDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	if q.Rho() >= 1 {
		return 0
	}
	mu := 1 / q.D
	omega := q.waitRate()
	c := q.ErlangC()
	var tail float64
	if math.Abs(omega-mu) <= 1e-9*mu {
		tail = (1-c)*math.Exp(-mu*t) + c*math.Exp(-mu*t)*(1+mu*t)
	} else {
		tail = (1-c)*math.Exp(-mu*t) +
			c*(omega*math.Exp(-mu*t)-mu*math.Exp(-omega*t))/(omega-mu)
	}
	v := 1 - tail
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// WaitPercentile returns the p-th percentile (p in [0,100)) of the
// waiting time in closed form: the distribution has the atom
// P(W = 0) = 1 - C, above which the percentile is
// ln(C/(1-p/100)) * D/(k-a). No search is needed.
func (q MMK) WaitPercentile(p float64) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if !(p >= 0 && p < 100) {
		return 0, fmt.Errorf("queueing: percentile %g outside [0, 100)", p)
	}
	instruments().searches.Inc()
	target := p / 100
	c := q.ErlangC()
	if 1-c >= target {
		return 0, nil
	}
	return math.Log(c/(1-target)) / q.waitRate(), nil
}

// ResponsePercentile returns the p-th percentile of the sojourn time by
// a bracketed regula-falsi solve of the exact ResponseCDF, a handful of
// float64 exponentials.
func (q MMK) ResponsePercentile(p float64) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if !(p >= 0 && p < 100) {
		return 0, fmt.Errorf("queueing: percentile %g outside [0, 100)", p)
	}
	instruments().searches.Inc()
	target := p / 100
	if target <= 0 {
		return 0, nil
	}
	hi := q.MeanResponse()
	if hi <= 0 {
		hi = q.D
	}
	fhi := q.ResponseCDF(hi)
	for i := 0; fhi < target; i++ {
		hi *= 2
		fhi = q.ResponseCDF(hi)
		if i > 60 {
			return 0, errors.New("queueing: percentile bracket failed to converge")
		}
	}
	return solveCDF(q.ResponseCDF, target, 0, 0, hi, fhi), nil
}

// solveCDF finds w with F(w) = target inside a bracket by regula falsi
// with the Illinois modification: the next probe interpolates the
// monotone CDF linearly between the bracket ends (far faster than
// bisection on the smooth, near-exponential tail), and halving the
// retained end's residual whenever the same side survives twice keeps
// the superlinear convergence guarantee bisection would otherwise be
// needed for. cdf may be any monotone CDF; the M/M/k sojourn uses it.
func solveCDF(cdf func(float64) float64, target, lo, flo, hi, fhi float64) float64 {
	glo, ghi := flo-target, fhi-target
	side := 0
	for i := 0; i < 200 && hi-lo > 1e-12*math.Max(1, hi); i++ {
		var mid float64
		if ghi != glo {
			mid = lo - glo*(hi-lo)/(ghi-glo)
		}
		if !(mid > lo && mid < hi) {
			mid = lo + 0.5*(hi-lo)
		}
		g := cdf(mid) - target
		if g < 0 {
			lo, glo = mid, g
			if side == -1 {
				ghi *= 0.5
			}
			side = -1
		} else {
			hi, ghi = mid, g
			if side == 1 {
				glo *= 0.5
			}
			side = 1
		}
	}
	return lo + 0.5*(hi-lo)
}
