package pareto

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/telemetry"
)

// TestAnnotateLatenciesBitwise: each point's annotation is exactly its
// own kernel's answer, spec.Build(u, t).ResponsePercentile(p), for
// every kernel family; a request-scoped annotation records its phase,
// and one whose context is done answers the context error.
func TestAnnotateLatenciesBitwise(t *testing.T) {
	front, err := FrontierSweep(paperLimits(t, 4, 2, true), paperWorkloads(t)[0], model.Options{}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 2 {
		t.Fatalf("frontier of %d points", len(front))
	}
	const u, p = 0.5371, 95
	for _, spec := range []queueing.Spec{{}, {Kind: queueing.KindMG1, SCV: 0.5}, {Kind: queueing.KindMG1, SCV: 4},
		{Kind: queueing.KindMMK, Servers: 4}} {
		lat, err := AnnotateLatencies(context.Background(), front, u, p, spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range front {
			k, err := spec.Build(u, float64(pt.Result.Time))
			if err != nil {
				t.Fatal(err)
			}
			want, err := k.ResponsePercentile(p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(lat[i]) != math.Float64bits(want) {
				t.Fatalf("%v point %d (%s): annotated %.17g, own solve %.17g", spec, i, pt.Config, lat[i], want)
			}
		}
	}

	rc := telemetry.NewRequestContext("r1", "frontier")
	if _, err := AnnotateLatencies(telemetry.WithRequest(context.Background(), rc), front, u, p, queueing.Spec{}, 0); err != nil {
		t.Fatal(err)
	}
	if tl := rc.TimelineString(); !strings.Contains(tl, "pareto.annotate_latencies@") {
		t.Fatalf("timeline %q lacks the annotation phase", tl)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnnotateLatencies(ctx, front, u, p, queueing.Spec{}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled annotation: %v, want context.Canceled", err)
	}
}

// TestAnnotateLatenciesRejectsNaN: a NaN utilization or percentile fails
// the annotation's own checks before any point is solved, so even an
// empty frontier rejects it, and a NaN utilization is never solved into
// a NaN latency.
func TestAnnotateLatenciesRejectsNaN(t *testing.T) {
	front, err := FrontierSweep(paperLimits(t, 2, 1, false), paperWorkloads(t)[0], model.Options{}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pts  []Point
		u, p float64
	}{{nil, math.NaN(), 95}, {nil, 0.5, math.NaN()}, {front, math.NaN(), 95}} {
		if lat, err := AnnotateLatencies(context.Background(), c.pts, c.u, c.p, queueing.Spec{}, 0); err == nil {
			t.Errorf("%d points, u=%g p=%g: annotated %v, want an error", len(c.pts), c.u, c.p, lat)
		}
	}
}
