package queueing

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/stats"
)

// BatchMD1 models the paper's batch submission pattern ("datacenters
// typically receive multiple jobs concurrently from many users. To
// represent the arrival of multiple jobs, we vary the number of jobs per
// batch", Section II-C): batches of B jobs arrive Poisson, each job has
// the deterministic service time D, and jobs within a batch are served
// FIFO. With B = 1 it reduces exactly to M/D/1.
type BatchMD1 struct {
	// BatchRate is the batch arrival rate (batches per second).
	BatchRate float64
	// Batch is the number of jobs per batch (B >= 1).
	Batch int
	// D is the per-job service time.
	D float64
}

// NewBatchMD1FromUtilization builds the batch queue for a target
// utilization rho = BatchRate * Batch * D.
func NewBatchMD1FromUtilization(rho float64, batch int, serviceTime float64) (BatchMD1, error) {
	if !finitePositive(serviceTime) {
		return BatchMD1{}, errServiceTime
	}
	if batch < 1 {
		return BatchMD1{}, errors.New("queueing: batch size must be at least 1")
	}
	if !(rho >= 0 && rho < 1) {
		return BatchMD1{}, fmt.Errorf("queueing: utilization %g outside [0, 1)", rho)
	}
	return BatchMD1{BatchRate: rho / (float64(batch) * serviceTime), Batch: batch, D: serviceTime}, nil
}

// Rho returns the server utilization.
func (q BatchMD1) Rho() float64 { return q.BatchRate * float64(q.Batch) * q.D }

// Validate checks stability.
func (q BatchMD1) Validate() error {
	if !finitePositive(q.D) {
		return errServiceTime
	}
	if q.Batch < 1 {
		return errors.New("queueing: batch size must be at least 1")
	}
	if !(q.BatchRate >= 0) {
		return errors.New("queueing: negative or NaN batch rate")
	}
	if !(q.Rho() < 1) {
		return fmt.Errorf("queueing: unstable queue, rho = %g >= 1", q.Rho())
	}
	return nil
}

// MeanResponse returns the mean per-job sojourn time. Viewing a batch as
// one M/D/1 customer with service B*D, the batch waits
// W_b = rho*(B*D)/(2*(1-rho)); a job at position i (1-based, uniform)
// additionally waits (i-1)*D in its own batch and i*... completes after
// i*D of service, so the mean job response is W_b + (B+1)/2 * D.
func (q BatchMD1) MeanResponse() float64 {
	rho := q.Rho()
	bd := float64(q.Batch) * q.D
	wb := rho * bd / (2 * (1 - rho))
	return wb + (float64(q.Batch)+1)/2*q.D
}

// AsMD1 returns the equivalent plain M/D/1 when Batch is 1.
func (q BatchMD1) AsMD1() (MD1, bool) {
	if q.Batch != 1 {
		return MD1{}, false
	}
	return MD1{Lambda: q.BatchRate, D: q.D}, true
}

// Simulate runs a Lindley recursion at batch granularity and returns
// per-job sojourn times: job i of a batch completes i*D after the batch
// enters service.
func (q BatchMD1) Simulate(opt SimOptions) (SimResult, error) {
	if err := q.Validate(); err != nil {
		return SimResult{}, err
	}
	if opt.Jobs <= 0 {
		return SimResult{}, errors.New("queueing: simulation needs at least one job")
	}
	if opt.Warmup >= opt.Jobs {
		return SimResult{}, errors.New("queueing: warmup must leave jobs to measure")
	}
	rng := stats.NewRNG(opt.Seed)
	batches := opt.Jobs/q.Batch + 1
	warmupBatches := opt.Warmup / q.Batch
	kept := make([]float64, 0, (batches-warmupBatches)*q.Batch)
	var sum stats.KahanSum
	w := 0.0
	bd := float64(q.Batch) * q.D
	for n := 0; n < batches; n++ {
		if n >= warmupBatches {
			for i := 1; i <= q.Batch; i++ {
				resp := w + float64(i)*q.D
				kept = append(kept, resp)
				sum.Add(resp)
			}
		}
		gap := rng.ExpFloat64(q.BatchRate)
		w += bd - gap
		if w < 0 {
			w = 0
		}
	}
	sort.Float64s(kept)
	return SimResult{Responses: kept, MeanResponse: sum.Sum() / float64(len(kept))}, nil
}

// ResponsePercentile estimates the p-th percentile of the per-job
// sojourn time by simulation (no closed form is implemented for the
// batch queue's distribution).
func (q BatchMD1) ResponsePercentile(p float64, opt SimOptions) (float64, error) {
	res, err := q.Simulate(opt)
	if err != nil {
		return 0, err
	}
	return res.Percentile(p)
}
