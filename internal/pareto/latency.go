package pareto

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/queueing"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// AnnotateLatencies attaches a tail-latency figure to every evaluated
// point: the p-th percentile response time of the configuration serving
// an open arrival stream at utilization u, under the queueing kernel
// selected by spec (the zero spec is the paper's M/D/1). Each point's
// aggregate service time is its model job time, so the annotation ranks
// frontier configurations by how their time-energy trade-off holds up
// once queueing delay is priced in. The searches fan out through the
// shared sweep pool and resolve through the kernel percentile cache,
// whose cell for (u, p) is dropped on return; the result is aligned
// with points. workers <= 0 uses GOMAXPROCS.
func AnnotateLatencies(ctx context.Context, points []Point, u, p float64, spec queueing.Spec, workers int) ([]float64, error) {
	span := telemetry.StartSpan("pareto.annotate_latencies").
		Arg("points", len(points)).Arg("u", u).Arg("p", p).Arg("kernel", spec.String())
	defer span.End()
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("pareto: latency annotation: %w", err)
	}
	if u <= 0 || u >= 1 {
		return nil, fmt.Errorf("pareto: latency annotation needs utilization in (0,1), got %g", u)
	}
	if p < 0 || p >= 100 {
		return nil, fmt.Errorf("pareto: latency annotation needs percentile in [0,100), got %g", p)
	}
	// Every point's kernel keys its solve on u's memo cell (its rho,
	// (u/t)*t, lies within an ulp or two of u and so quantizes alike
	// unless u sits on a lattice midpoint), dropped once the points are
	// done: at a fresh utilization nothing reads it again.
	defer spec.ForgetResponsePercentile(u, p)
	out := make([]float64, len(points))
	errs := make([]error, len(points))
	if err := sweep.ForEachContext(ctx, len(points), workers, func(i int) {
		t := float64(points[i].Result.Time)
		if t <= 0 {
			errs[i] = errors.New("zero service time")
			return
		}
		k, err := spec.Build(u, t)
		if err != nil {
			errs[i] = err
			return
		}
		out[i], errs[i] = k.ResponsePercentile(p)
	}); err != nil {
		return nil, fmt.Errorf("pareto: latency annotation: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pareto: latency for %s: %w", points[i].Config, err)
		}
	}
	return out, nil
}
