package queueing

import (
	"context"
	"fmt"

	"repro/internal/telemetry"
)

// WaitPercentiles returns the waiting-time percentiles for every p in ps
// (each in [0, 100)), in the input order. Each entry resolves through
// the same percentile cache as WaitPercentile, so the results are
// bit-identical to calling it per entry.
func (q MD1) WaitPercentiles(ps []float64) ([]float64, error) {
	return q.WaitPercentilesContext(context.Background(), ps)
}

// WaitPercentilesContext is WaitPercentiles with cancellation: the batch
// checks ctx between percentile searches and stops with ctx's error as
// soon as it is done. A search already under way (a few microseconds at
// any utilization) completes before the check, so cancellation
// granularity is one search. This is the entry point request-scoped
// callers (the epserve handlers) use to propagate per-request deadlines
// into the kernel.
func (q MD1) WaitPercentilesContext(ctx context.Context, ps []float64) ([]float64, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	for _, p := range ps {
		if p < 0 || p >= 100 {
			return nil, fmt.Errorf("queueing: percentile %g outside [0, 100)", p)
		}
	}
	ins := instruments()
	span := ins.tracer.Start("queueing.wait_percentiles").Arg("n", len(ps))
	defer span.End()
	// Request-scoped callers (the epserve handlers) carry a
	// RequestContext in ctx; resolve it once per batch so every cache
	// lookup below attributes to the owning request. Nil outside a
	// request scope, where Add/Phase are no-ops.
	rc := telemetry.RequestFrom(ctx)
	defer rc.Phase("queueing.percentiles")()

	rho := q.Rho()
	out := make([]float64, len(ps))
	for i, p := range ps {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("queueing: percentile batch: %w", err)
		}
		ins.searches.Inc()
		target := p / 100
		if 1-rho >= target {
			continue
		}
		out[i] = cachedNormalizedPercentile(rho, target, rc) * q.D
	}
	return out, nil
}

// ResponsePercentiles returns the sojourn-time percentiles for every p
// in ps, in the input order: the batched waiting-time percentiles
// shifted by the deterministic service time.
func (q MD1) ResponsePercentiles(ps []float64) ([]float64, error) {
	return q.ResponsePercentilesContext(context.Background(), ps)
}

// ResponsePercentilesContext is ResponsePercentiles with cancellation,
// with the same per-search granularity as WaitPercentilesContext.
func (q MD1) ResponsePercentilesContext(ctx context.Context, ps []float64) ([]float64, error) {
	ws, err := q.WaitPercentilesContext(ctx, ps)
	if err != nil {
		return nil, err
	}
	for i := range ws {
		ws[i] += q.D
	}
	return ws, nil
}

// WaitCDFBatch returns P(W <= t) for every t in ts, sharing one
// evaluator, and so one set of tail roots, across the evaluations.
// Results are identical to calling WaitCDF per entry.
func (q MD1) WaitCDFBatch(ts []float64) []float64 {
	out := make([]float64, len(ts))
	d := md1Dist{rho: q.Rho()}
	if d.rho >= 1 {
		return out
	}
	for i, t := range ts {
		out[i] = d.cdf(t / q.D)
	}
	return out
}
