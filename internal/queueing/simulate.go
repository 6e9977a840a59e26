package queueing

import (
	"errors"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// SimOptions controls the Monte-Carlo queue simulation.
type SimOptions struct {
	// Jobs is the number of simulated arrivals.
	Jobs int
	// Warmup discards the first arrivals so percentiles reflect steady
	// state rather than the empty initial queue.
	Warmup int
	// Seed makes the run reproducible.
	Seed uint64
}

// SimResult holds the simulated sojourn-time distribution.
type SimResult struct {
	// Responses are the retained sojourn times, sorted ascending.
	Responses []float64
	// MeanResponse is the average over retained jobs.
	MeanResponse float64
}

// Percentile returns the p-th percentile of the simulated sojourn time.
func (r SimResult) Percentile(p float64) (float64, error) {
	return stats.PercentileSorted(r.Responses, p)
}

// ServiceSampler returns a service-time sampler with mean d and the
// given squared coefficient of variation, built from the standard
// moment-matching phase-type recipes:
//
//   - scv = 0: deterministic.
//   - 0 < scv < 1: mixed Erlang E_{k-1,k} (Tijms): with k = ceil(1/scv),
//     an Erlang of k-1 or k phases at a common rate, the mixture weight
//     chosen so both moments match exactly. scv = 1/k degenerates to the
//     pure Erlang-k.
//   - scv = 1: exponential.
//   - scv > 1: balanced-means two-phase hyperexponential H2, again
//     matching both moments exactly.
//
// The DES side of the kernel conformance suite uses these to drive
// SimulateGG1 against the M/G/1 kernel at each SCV rung.
func ServiceSampler(d, scv float64) (func(*stats.RNG) float64, error) {
	if d <= 0 {
		return nil, errors.New("queueing: service time must be positive")
	}
	if scv < 0 || math.IsInf(scv, 0) || math.IsNaN(scv) {
		return nil, errors.New("queueing: scv must be finite and >= 0")
	}
	switch {
	case scv == 0:
		return func(*stats.RNG) float64 { return d }, nil
	case scv < 1:
		k := int(math.Ceil(1 / scv))
		kf := float64(k)
		p := (kf*scv - math.Sqrt(kf*(1+scv)-kf*kf*scv)) / (1 + scv)
		rate := (kf - p) / d
		return func(rng *stats.RNG) float64 {
			phases := k
			if rng.Float64() < p {
				phases = k - 1
			}
			var s float64
			for i := 0; i < phases; i++ {
				s += rng.ExpFloat64(rate)
			}
			return s
		}, nil
	case scv == 1:
		return func(rng *stats.RNG) float64 { return rng.ExpFloat64(1 / d) }, nil
	default:
		p1 := (1 + math.Sqrt((scv-1)/(scv+1))) / 2
		mu1 := 2 * p1 / d
		mu2 := 2 * (1 - p1) / d
		return func(rng *stats.RNG) float64 {
			if rng.Float64() < p1 {
				return rng.ExpFloat64(mu1)
			}
			return rng.ExpFloat64(mu2)
		}, nil
	}
}

// SimulateMMK runs a discrete-event simulation of the M/M/k queue:
// FCFS arrivals assigned to the earliest-free of K servers, exponential
// service per server. It is the cross-check for the Erlang-C kernel.
func SimulateMMK(q MMK, opt SimOptions) (SimResult, error) {
	if err := q.Validate(); err != nil {
		return SimResult{}, err
	}
	if opt.Jobs <= 0 {
		return SimResult{}, errors.New("queueing: simulation needs at least one job")
	}
	if opt.Warmup >= opt.Jobs {
		return SimResult{}, errors.New("queueing: warmup must leave jobs to measure")
	}
	defer telemetry.StartSpan("queueing.simulate_mmk").Arg("jobs", opt.Jobs).End()
	telemetry.Global().Counter("queueing.jobs_simulated").Add(uint64(opt.Jobs))
	rng := stats.NewRNG(opt.Seed)
	mu := 1 / q.D
	free := make([]float64, q.K)
	kept := make([]float64, 0, opt.Jobs-opt.Warmup)
	var sum stats.KahanSum
	t := 0.0
	for i := 0; i < opt.Jobs; i++ {
		if q.Lambda > 0 {
			t += rng.ExpFloat64(q.Lambda)
		} else {
			// Zero arrival rate: a single job never queues; its sojourn
			// is one service draw.
			t = free[0]
		}
		// FCFS: the job takes the earliest-free server.
		mi := 0
		for j := 1; j < len(free); j++ {
			if free[j] < free[mi] {
				mi = j
			}
		}
		start := t
		if free[mi] > start {
			start = free[mi]
		}
		done := start + rng.ExpFloat64(mu)
		free[mi] = done
		if i >= opt.Warmup {
			resp := done - t
			kept = append(kept, resp)
			sum.Add(resp)
		}
	}
	sort.Float64s(kept)
	return SimResult{
		Responses:    kept,
		MeanResponse: sum.Sum() / float64(len(kept)),
	}, nil
}

// SimulateGG1 runs a Lindley-recursion simulation with caller-supplied
// inter-arrival and service samplers: W_{n+1} = max(0, W_n + S_n - A_n).
// With exponential gaps and ServiceSampler(D, 0) it is the M/D/1
// cross-check for Crommelin's formula; other samplers serve
// sensitivity studies (e.g. service-time jitter from the cluster
// simulator).
func SimulateGG1(arrival, service func(*stats.RNG) float64, opt SimOptions) (SimResult, error) {
	if opt.Jobs <= 0 {
		return SimResult{}, errors.New("queueing: simulation needs at least one job")
	}
	if opt.Warmup >= opt.Jobs {
		return SimResult{}, errors.New("queueing: warmup must leave jobs to measure")
	}
	defer telemetry.StartSpan("queueing.simulate_gg1").Arg("jobs", opt.Jobs).End()
	telemetry.Global().Counter("queueing.jobs_simulated").Add(uint64(opt.Jobs))
	rng := stats.NewRNG(opt.Seed)
	kept := make([]float64, 0, opt.Jobs-opt.Warmup)
	var sum stats.KahanSum
	w := 0.0
	for i := 0; i < opt.Jobs; i++ {
		s := service(rng)
		if s < 0 {
			return SimResult{}, errors.New("queueing: negative service time sampled")
		}
		if i >= opt.Warmup {
			resp := w + s
			kept = append(kept, resp)
			sum.Add(resp)
		}
		a := arrival(rng)
		if a < 0 {
			return SimResult{}, errors.New("queueing: negative inter-arrival sampled")
		}
		w += s - a
		if w < 0 {
			w = 0
		}
	}
	sort.Float64s(kept)
	return SimResult{
		Responses:    kept,
		MeanResponse: sum.Sum() / float64(len(kept)),
	}, nil
}
