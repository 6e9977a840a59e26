package pareto

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// sweepSpace returns a small enumerable limit set and workload for
// sweep tests.
func sweepSpace(t testing.TB) ([]cluster.Limit, *workload.Profile) {
	t.Helper()
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := reg.Lookup(workload.NameEP)
	if err != nil {
		t.Fatal(err)
	}
	a9, err := cat.Lookup("A9")
	if err != nil {
		t.Fatal(err)
	}
	k10, err := cat.Lookup("K10")
	if err != nil {
		t.Fatal(err)
	}
	return []cluster.Limit{
		{Type: a9, MaxNodes: 8, FixCoresAndFreq: true},
		{Type: k10, MaxNodes: 4, FixCoresAndFreq: true},
	}, wl
}

// TestSweepTelemetryAndProgress: an instrumented reference sweep counts
// every configuration exactly once (evaluated + skipped), records its
// span, and drives the deterministic progress reporter to the full
// count.
func TestSweepTelemetryAndProgress(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)

	limits, wl := sweepSpace(t)
	total := cluster.SpaceSize(limits)
	var buf bytes.Buffer
	pr := telemetry.NewProgress(&buf, "test sweep", int64(total), 50)

	front, err := FrontierSweep(limits, wl, model.Options{},
		SweepOptions{Progress: pr, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	if got := pr.Count(); got != int64(total) {
		t.Errorf("progress ticks = %d, want %d", got, total)
	}
	if buf.Len() == 0 {
		t.Error("progress reporter wrote nothing")
	}
	evaluated := reg.Counter("pareto.configs_evaluated").Value()
	skipped := reg.Counter("pareto.configs_skipped").Value()
	if evaluated+skipped != uint64(total) {
		t.Errorf("evaluated %d + skipped %d != space %d", evaluated, skipped, total)
	}
	if reg.Tracer().Len() == 0 {
		t.Error("no spans recorded for the sweep")
	}
}

// TestFastSweepAccounting: the fast engine's counters partition the
// space exactly — every configuration is evaluated, skipped, filtered
// or pruned, never double-counted — and the progress reporter reaches
// the full count even when whole subtrees are pruned in bulk.
func TestFastSweepAccounting(t *testing.T) {
	limits, wl := sweepSpace(t)
	// Widen to the DVFS space so pruning has something to bite on.
	limits[0].FixCoresAndFreq = false
	limits[1].FixCoresAndFreq = false
	total := cluster.SpaceSize(limits)

	type counts struct{ evaluated, skipped, filtered, pruned uint64 }
	run := func(sw SweepOptions) ([]Point, counts) {
		t.Helper()
		reg := telemetry.New()
		telemetry.SetGlobal(reg)
		defer telemetry.SetGlobal(nil)
		var buf bytes.Buffer
		pr := telemetry.NewProgress(&buf, "test sweep", int64(total), 5000)
		sw.Progress = pr
		front, err := FrontierSweep(limits, wl, model.Options{}, sw)
		if err != nil {
			t.Fatal(err)
		}
		if got := pr.Count(); got != int64(total) {
			t.Errorf("progress ticks = %d, want %d", got, total)
		}
		return front, counts{
			evaluated: reg.Counter("pareto.configs_evaluated").Value(),
			skipped:   reg.Counter("pareto.configs_skipped").Value(),
			filtered:  reg.Counter("pareto.configs_filtered").Value(),
			pruned:    reg.Counter("pareto.configs_pruned").Value(),
		}
	}

	pruningFront, c := run(SweepOptions{})
	if sum := c.evaluated + c.skipped + c.filtered + c.pruned; sum != uint64(total) {
		t.Errorf("evaluated %d + skipped %d + filtered %d + pruned %d = %d != space %d",
			c.evaluated, c.skipped, c.filtered, c.pruned, sum, total)
	}
	if c.pruned == 0 {
		t.Error("pruning never fired on the DVFS space")
	}

	plainFront, c2 := run(SweepOptions{NoPrune: true})
	if c2.pruned != 0 {
		t.Errorf("NoPrune sweep still pruned %d configurations", c2.pruned)
	}
	if c2.evaluated+c2.skipped != uint64(total) {
		t.Errorf("NoPrune: evaluated %d + skipped %d != space %d", c2.evaluated, c2.skipped, total)
	}
	if len(pruningFront) != len(plainFront) {
		t.Fatalf("pruned frontier has %d points, NoPrune %d", len(pruningFront), len(plainFront))
	}
	for i := range pruningFront {
		if pruningFront[i].Config.Key() != plainFront[i].Config.Key() ||
			pruningFront[i].Time != plainFront[i].Time ||
			pruningFront[i].Energy != plainFront[i].Energy {
			t.Errorf("frontier point %d differs with pruning: %s vs %s",
				i, pruningFront[i].Config, plainFront[i].Config)
		}
	}

	// With a filter installed, rejected configurations count as
	// filtered (never skipped or evaluated), exactly as on the
	// reference path.
	_, c3 := run(SweepOptions{Filter: func(cfg cluster.Config) bool {
		return cfg.Nodes()%2 == 0
	}})
	if c3.filtered == 0 {
		t.Error("filter rejected nothing")
	}
	if sum := c3.evaluated + c3.skipped + c3.filtered + c3.pruned; sum != uint64(total) {
		t.Errorf("filtered sweep counters sum %d != space %d", sum, total)
	}
}

// TestSweepMatchesUninstrumented: installing telemetry must not change
// the frontier.
func TestSweepMatchesUninstrumented(t *testing.T) {
	limits, wl := sweepSpace(t)
	plain, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	telemetry.SetGlobal(telemetry.New())
	defer telemetry.SetGlobal(nil)
	instrumented, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(instrumented) {
		t.Fatalf("frontier sizes differ: %d vs %d", len(plain), len(instrumented))
	}
	for i := range plain {
		if plain[i].Config.Key() != instrumented[i].Config.Key() {
			t.Fatalf("frontier point %d differs: %s vs %s",
				i, plain[i].Config, instrumented[i].Config)
		}
	}
}

// TestFrontierSweepMatchesSequential: the sweep-engine frontier equals
// the sequential FrontierFor one.
func TestFrontierSweepMatchesSequential(t *testing.T) {
	reg, err := workload.PaperRegistry(hardware.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	wl, err := reg.Lookup(workload.NameX264)
	if err != nil {
		t.Fatal(err)
	}
	limits := paperLimits(t, 6, 3, true)
	seq, err := FrontierFor(limits, wl, model.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(fast) {
		t.Fatalf("frontier sizes differ: %d vs %d", len(seq), len(fast))
	}
	for i := range seq {
		if seq[i].Config.Key() != fast[i].Config.Key() {
			t.Errorf("frontier point %d differs: %s vs %s", i, seq[i].Config, fast[i].Config)
		}
	}
}
