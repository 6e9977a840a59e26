package queueing

import (
	"context"
	"fmt"

	"repro/internal/telemetry"
)

// percentiles is every kernel's batch: the percentiles for each p in
// ps, in input order, each answered by the kernel's own scalar solve, so
// a batch entry keeps the scalar's bits. It rejects an invalid queue
// (invalid is the kernel's Validate result) and every p outside [0, 100)
// before the first solve, and checks ctx before each entry, so
// cancellation granularity is one solve (a few microseconds at any
// utilization). The batch is one queueing.percentiles span (see
// telemetry.Start): a phase on a request-scoped ctx's timeline.
func percentiles(ctx context.Context, invalid error, ps []float64, solve func(p float64) (float64, error)) ([]float64, error) {
	if invalid != nil {
		return nil, invalid
	}
	for _, p := range ps {
		if !(p >= 0 && p < 100) {
			return nil, fmt.Errorf("queueing: percentile %g outside [0, 100)", p)
		}
	}
	defer telemetry.Start(ctx, "queueing.percentiles").End()
	out := make([]float64, len(ps))
	for i, p := range ps {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("queueing: percentile batch: %w", err)
		}
		v, err := solve(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// WaitPercentilesContext returns the waiting-time percentiles for every
// p in ps through the shared batch (see percentiles).
func (q MD1) WaitPercentilesContext(ctx context.Context, ps []float64) ([]float64, error) {
	return percentiles(ctx, q.Validate(), ps, q.WaitPercentile)
}

// ResponsePercentilesContext returns the sojourn-time percentiles for
// every p in ps through the shared batch (see percentiles).
func (q MD1) ResponsePercentilesContext(ctx context.Context, ps []float64) ([]float64, error) {
	return percentiles(ctx, q.Validate(), ps, q.ResponsePercentile)
}

// WaitPercentilesContext returns the waiting-time percentiles for every
// p in ps through the shared batch (see percentiles).
func (q MG1) WaitPercentilesContext(ctx context.Context, ps []float64) ([]float64, error) {
	return percentiles(ctx, q.Validate(), ps, q.WaitPercentile)
}

// ResponsePercentilesContext returns the sojourn-time percentiles for
// every p in ps through the shared batch (see percentiles).
func (q MG1) ResponsePercentilesContext(ctx context.Context, ps []float64) ([]float64, error) {
	return percentiles(ctx, q.Validate(), ps, q.ResponsePercentile)
}

// WaitPercentilesContext returns the waiting-time percentiles for every
// p in ps through the shared batch (see percentiles).
func (q MMK) WaitPercentilesContext(ctx context.Context, ps []float64) ([]float64, error) {
	return percentiles(ctx, q.Validate(), ps, q.WaitPercentile)
}

// ResponsePercentilesContext returns the sojourn-time percentiles for
// every p in ps through the shared batch (see percentiles).
func (q MMK) ResponsePercentilesContext(ctx context.Context, ps []float64) ([]float64, error) {
	return percentiles(ctx, q.Validate(), ps, q.ResponsePercentile)
}
