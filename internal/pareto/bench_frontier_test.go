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

// benchSweep times sweeps of the footnote-4 space, cycling through
// sws.
func benchSweep(b *testing.B, sweep func([]cluster.Limit, *workload.Profile, model.Options, SweepOptions) ([]Point, error), sws ...SweepOptions) {
	limits, wl := paperBenchSpace(b)
	total := cluster.SpaceSize(limits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front, err := sweep(limits, wl, model.Options{}, sws[i%len(sws)])
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

// BenchmarkFrontierSweepFastWarm is the steady-state number of a
// repeated sweep: a caller-provided warm table whose slot holds the
// reduced space and its last walk, so the sweep walks nothing and only
// materializes the frontier — the configuration the allocation guard
// pins at 25.
func BenchmarkFrontierSweepFastWarm(b *testing.B) {
	_, wl := paperBenchSpace(b)
	benchSweep(b, FrontierSweep, SweepOptions{Table: model.NewTable(wl, model.Options{})})
}

// BenchmarkFrontierSweepWarmWalk is the warm walk: two budget caps
// above every configuration's peak (690 W) alternate on one warm table,
// so each sweep finds its space kept but its last walk at the other
// cap, and walks the kept space.
func BenchmarkFrontierSweepWarmWalk(b *testing.B) {
	_, wl := paperBenchSpace(b)
	table := model.NewTable(wl, model.Options{})
	benchSweep(b, FrontierSweep, SweepOptions{Table: table, Budget: paperBudget(1000)},
		SweepOptions{Table: table, Budget: paperBudget(2000)})
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

// BenchmarkEvaluateCalcs measures the allocation-free hot path on a
// two-type configuration, its groups resolved through the table as the
// sweep's leaf holds them; allocs/op must report 0.
func BenchmarkEvaluateCalcs(b *testing.B) {
	_, wl := paperBenchSpace(b)
	cat := hardware.DefaultCatalog()
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	cfg := cluster.MustConfig(cluster.FullNodes(a9, 7), cluster.FullNodes(k10, 3))
	table := model.NewTable(wl, model.Options{})
	gcs := make([]model.GroupCalc, len(cfg.Groups))
	for i, g := range cfg.Groups {
		gcs[i] = model.GroupCalc{Calc: table.Calc(g), Count: g.Count}
	}
	if _, ok := table.EvaluateCalcs(gcs); !ok {
		b.Fatal("configuration not evaluable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := table.EvaluateCalcs(gcs); !ok {
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
// of the fast sweep over the footnote-4 space (36,380 configurations),
// with a warm shared table and a hot scratch pool. A repeated sweep,
// whose slot holds the reduced space and its last walk, allocates only
// the frontier materialization (the point slice, then two per point: 25
// for EP's 12 points), the bound. Two budget caps alternating on the
// table make every sweep walk the kept space: the walk itself allocates
// nothing, and its record adds three allocations (the record, its
// staircase and its selection blocks) to the materialization. Neither
// rebuilds nor reduces the space, and with telemetry off the sweep's
// span boxes no args. A per-configuration engine costs ~4,300 allocs
// per sweep; a regression back to per-sweep builds or to
// per-configuration or per-admission allocation would blow through
// these bounds. Under the race detector the sweeps still run, but the
// bounds are not asserted: the detector makes the scratch pool miss.
func TestFrontierSweepFastAllocs(t *testing.T) {
	limits, wl := paperBenchSpace(t)
	for _, c := range []struct {
		label   string
		budgets []*cluster.PowerBudget
		bound   float64
	}{
		{"repeated sweep", []*cluster.PowerBudget{nil}, 25},
		{"walk of the kept space", []*cluster.PowerBudget{paperBudget(1000), paperBudget(2000)}, 28},
	} {
		table := model.NewTable(wl, model.Options{})
		i := 0
		sweep := func() {
			front, err := FrontierSweep(limits, wl, model.Options{},
				SweepOptions{Table: table, Budget: c.budgets[i%len(c.budgets)]})
			i++
			if err != nil {
				t.Fatal(err)
			}
			if len(front) == 0 {
				t.Fatal("empty frontier")
			}
		}
		sweep() // warm the memo table, the slot and the scratch pool
		allocs := testing.AllocsPerRun(10, sweep)
		if raceEnabled {
			t.Logf("%s: race detector drops sync.Pool items; bound not asserted (%.0f allocs/op)", c.label, allocs)
			continue
		}
		if allocs > c.bound {
			t.Errorf("%s allocates %.0f objects/op warm, want <= %.0f", c.label, allocs, c.bound)
		}
	}
}
