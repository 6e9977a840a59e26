package fleet_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/hardware"
	"repro/internal/scenario"
	"repro/internal/units"
	"repro/internal/workload"
)

// BenchmarkFleetRun times fleet.New plus Run on chaos-fleet.yaml cut to
// 180 simulated seconds with the latency probe off, at three fleet
// sizes. It reports simulated node-seconds per wall-second and events
// per op; make bench-fleet distils the output into BENCH_fleet.json.
func BenchmarkFleetRun(b *testing.B) {
	const horizon = units.Seconds(180)
	catalog := hardware.DefaultCatalog()
	registry, err := workload.PaperRegistry(catalog)
	if err != nil {
		b.Fatal(err)
	}
	for _, nodes := range []int{100, 1200, 10000} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			sc, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", "chaos-fleet.yaml"))
			if err != nil {
				b.Fatal(err)
			}
			sc.Nodes, sc.Duration, sc.Latency = nodes, horizon, nil
			spec, err := sc.Build(catalog, registry)
			if err != nil {
				b.Fatal(err)
			}
			var events uint64
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				sim, err := fleet.New(spec)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				events = res.Summary.Events
			}
			b.ReportMetric(float64(nodes)*float64(horizon)*float64(b.N)/b.Elapsed().Seconds(), "node-s/s")
			b.ReportMetric(float64(events), "events/op")
		})
	}
}
