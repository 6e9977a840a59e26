package pareto

import (
	"context"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/telemetry"
)

// TestAnnotateLatenciesDropsItsCell: an annotation solves its (u, p)
// once — one percentile-cache miss, a hit for every other point — and
// drops the cell on return, so the same annotation again misses once
// more and returns the same bits.
func TestAnnotateLatenciesDropsItsCell(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	front, err := FrontierSweep(paperLimits(t, 4, 2, true), paperWorkloads(t)[0], model.Options{}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 2 {
		t.Fatalf("frontier of %d points", len(front))
	}
	misses, hits := reg.Counter("queueing.percentile_cache_misses"), reg.Counter("queueing.percentile_cache_hits")
	var first []float64
	for round := uint64(1); round <= 2; round++ {
		lat, err := AnnotateLatencies(context.Background(), front, 0.5371, 95, queueing.Spec{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if misses.Value() != round || hits.Value() != round*uint64(len(front)-1) {
			t.Fatalf("round %d: %d misses and %d hits over %d points", round, misses.Value(), hits.Value(), len(front))
		}
		if first == nil {
			first = lat
			continue
		}
		for i := range lat {
			if math.Float64bits(lat[i]) != math.Float64bits(first[i]) {
				t.Fatalf("point %d: %g, then %g", i, first[i], lat[i])
			}
		}
	}
}
