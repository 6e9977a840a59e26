package pareto

import (
	"context"
	"fmt"

	"repro/internal/queueing"
	"repro/internal/telemetry"
)

// AnnotateLatencies attaches a tail-latency figure to every evaluated
// point: the p-th percentile response time of the configuration serving
// an open arrival stream at utilization u, under the queueing kernel
// selected by spec (the zero spec is the paper's M/D/1). Each point's
// aggregate service time is its model job time, so the annotation ranks
// frontier configurations by how their time-energy trade-off holds up
// once queueing delay is priced in. The points are solved in order on
// the caller's goroutine, a microsecond or two each, checking ctx
// between them; the result is aligned with points. The annotation is
// one pareto.annotate_latencies span (see telemetry.Start): a phase on a
// request-scoped ctx's timeline. workers is ignored.
func AnnotateLatencies(ctx context.Context, points []Point, u, p float64, spec queueing.Spec, workers int) ([]float64, error) {
	span := telemetry.Start(ctx, "pareto.annotate_latencies")
	defer span.End()
	if span.KeepsArgs() {
		span.Arg("points", len(points)).Arg("u", u).Arg("p", p).Arg("kernel", spec.String())
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("pareto: latency annotation: %w", err)
	}
	if !(u > 0 && u < 1) {
		return nil, fmt.Errorf("pareto: latency annotation needs utilization in (0,1), got %g", u)
	}
	if !(p >= 0 && p < 100) {
		return nil, fmt.Errorf("pareto: latency annotation needs percentile in [0,100), got %g", p)
	}
	out := make([]float64, len(points))
	for i, pt := range points {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("pareto: latency annotation: %w", err)
		}
		t := float64(pt.Result.Time)
		if t <= 0 {
			return nil, fmt.Errorf("pareto: latency for %s: zero service time", pt.Config)
		}
		k, err := spec.Build(u, t)
		if err == nil {
			out[i], err = k.ResponsePercentile(p)
		}
		if err != nil {
			return nil, fmt.Errorf("pareto: latency for %s: %w", pt.Config, err)
		}
	}
	return out, nil
}
