package pareto

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/workload"
)

// paperBenchSpace returns the paper's footnote-4 design space (36,380
// configurations: 10 A9 and 10 K10 nodes with free cores and DVFS) and
// the EP workload — the benchmark substrate for `make bench-frontier`.
// The space is memoized so every benchmark sees the same *Profile and
// warm tables built for it stay valid across benchSweep calls.
var benchSpaceOnce sync.Once
var benchSpaceLimits []cluster.Limit
var benchSpaceWL *workload.Profile
var benchSpaceErr error

func paperBenchSpace(tb testing.TB) ([]cluster.Limit, *workload.Profile) {
	tb.Helper()
	benchSpaceOnce.Do(func() {
		cat := hardware.DefaultCatalog()
		reg, err := workload.PaperRegistry(cat)
		if err != nil {
			benchSpaceErr = err
			return
		}
		wl, err := reg.Lookup(workload.NameEP)
		if err != nil {
			benchSpaceErr = err
			return
		}
		a9, err := cat.Lookup("A9")
		if err != nil {
			benchSpaceErr = err
			return
		}
		k10, err := cat.Lookup("K10")
		if err != nil {
			benchSpaceErr = err
			return
		}
		benchSpaceLimits = []cluster.Limit{
			{Type: a9, MaxNodes: 10},
			{Type: k10, MaxNodes: 10},
		}
		benchSpaceWL = wl
	})
	if benchSpaceErr != nil {
		tb.Fatal(benchSpaceErr)
	}
	return benchSpaceLimits, benchSpaceWL
}

func benchSweep(b *testing.B, sweep func([]cluster.Limit, *workload.Profile, model.Options, SweepOptions) ([]Point, error), sw SweepOptions) {
	limits, wl := paperBenchSpace(b)
	total := cluster.SpaceSize(limits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front, err := sweep(limits, wl, model.Options{}, sw)
		if err != nil {
			b.Fatal(err)
		}
		if len(front) == 0 {
			b.Fatal("empty frontier")
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(total)*float64(b.N)/secs, "configs/s")
	}
}

// BenchmarkFrontierSweepFast is the headline number: the memoized
// closed-form engine over the footnote-4 space, walking the product of
// the per-type dominance staircases.
func BenchmarkFrontierSweepFast(b *testing.B) {
	benchSweep(b, FrontierSweep, SweepOptions{})
}

// BenchmarkFrontierSweepFastWarm is the steady-state number: a sweep
// with a caller-provided warm table, so the memo is populated, the
// table's slot holds the reduced space and the scratch pool is hot —
// the configuration the allocation guard pins.
func BenchmarkFrontierSweepFastWarm(b *testing.B) {
	_, wl := paperBenchSpace(b)
	benchSweep(b, FrontierSweep, SweepOptions{Table: model.NewTable(wl, model.Options{})})
}

// BenchmarkFrontierSweepFastNoPrune isolates the reduction's
// contribution: the same engine walking all 36,380 configurations.
func BenchmarkFrontierSweepFastNoPrune(b *testing.B) {
	benchSweep(b, FrontierSweep, SweepOptions{NoPrune: true})
}

// BenchmarkFrontierSweepReference is the serial reference baseline:
// one full model.Evaluate per configuration.
func BenchmarkFrontierSweepReference(b *testing.B) {
	benchSweep(b, frontierSweepReference, SweepOptions{})
}

// BenchmarkEvaluateFast measures the allocation-free hot path on a
// two-type configuration; allocs/op must report 0.
func BenchmarkEvaluateFast(b *testing.B) {
	_, wl := paperBenchSpace(b)
	cat := hardware.DefaultCatalog()
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	cfg := cluster.MustConfig(cluster.FullNodes(a9, 7), cluster.FullNodes(k10, 3))
	table := model.NewTable(wl, model.Options{})
	if _, ok := table.EvaluateFast(cfg); !ok {
		b.Fatal("configuration not evaluable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := table.EvaluateFast(cfg); !ok {
			b.Fatal("evaluation failed")
		}
	}
}

// BenchmarkEvaluateReference is model.Evaluate on the same
// configuration, for the per-evaluation speedup ratio.
func BenchmarkEvaluateReference(b *testing.B) {
	_, wl := paperBenchSpace(b)
	cat := hardware.DefaultCatalog()
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	cfg := cluster.MustConfig(cluster.FullNodes(a9, 7), cluster.FullNodes(k10, 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Evaluate(cfg, wl, model.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFrontierSweepFastAllocs pins the steady-state allocation budget
// of the fast sweep: with a warm shared table, whose slot already holds
// the reduced space, and a hot scratch pool, a full footnote-4 sweep
// (36,380 configurations) allocates only the frontier materialization
// (the point slice, then two per point: 25 for EP's 12 points) and
// telemetry scaffolding: 28 objects, the bound.
// The space is neither rebuilt nor reduced, and the walk allocates
// nothing. A per-configuration engine costs ~4,300 allocs per sweep; a
// regression back to per-sweep builds or to per-configuration or
// per-admission allocation would blow through this bound. Under the
// race detector the sweep still runs, but the bound is not asserted:
// the detector makes the scratch pool miss.
func TestFrontierSweepFastAllocs(t *testing.T) {
	limits, wl := paperBenchSpace(t)
	table := model.NewTable(wl, model.Options{})
	sweep := func() {
		front, err := FrontierSweep(limits, wl, model.Options{},
			SweepOptions{Table: table})
		if err != nil {
			t.Fatal(err)
		}
		if len(front) == 0 {
			t.Fatal("empty frontier")
		}
	}
	sweep() // warm the memo table and the scratch pool
	allocs := testing.AllocsPerRun(10, sweep)
	if raceEnabled {
		t.Logf("race detector drops sync.Pool items; bound not asserted (%.0f allocs/op)", allocs)
		return
	}
	if allocs > 28 {
		t.Errorf("fast sweep allocates %.0f objects/op warm, want <= 28", allocs)
	}
}
