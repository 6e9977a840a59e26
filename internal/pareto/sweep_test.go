package pareto

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
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

	front, err := frontierSweepReference(limits, wl, model.Options{},
		SweepOptions{Progress: pr})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	if want := fmt.Sprintf("test sweep: %d/%d configs\n", total, total); !strings.HasSuffix(buf.String(), want) {
		t.Errorf("progress report ends %q, want %q", buf.String(), want)
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
		if want := fmt.Sprintf("test sweep: %d/%d configs\n", total, total); !strings.HasSuffix(buf.String(), want) {
			t.Errorf("progress report ends %q, want %q", buf.String(), want)
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

	// Under a random peak-power cap below the largest configuration's
	// 300 W, configurations over it count as filtered (never skipped or
	// evaluated), exactly as on the reference path.
	budget := &cluster.PowerBudget{Cap: units.Watts(60 + 190*stats.NewRNG(0xB0D6E7).Float64()),
		Switched: "A9", Switch: hardware.DefaultSwitch()}
	_, c3 := run(SweepOptions{Budget: budget})
	if c3.filtered == 0 {
		t.Errorf("budget %v rejected nothing", budget.Cap)
	}
	if sum := c3.evaluated + c3.skipped + c3.filtered + c3.pruned; sum != uint64(total) {
		t.Errorf("filtered sweep counters sum %d != space %d", sum, total)
	}
}

// TestSweepSpans: under an installed registry an unscoped sweep and an
// unscoped latency annotation each record exactly one span, with the
// args a CLI trace shows, and the annotation's solves record none;
// under a request scope both are phases on the request's timeline and
// the process tracer keeps nothing.
func TestSweepSpans(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	limits, wl := sweepSpace(t)
	front, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnnotateLatencies(context.Background(), front, 0.5, 95, queueing.Spec{}, 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string         `json:"name"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"pareto.frontier_sweep":     {"workload", "engine", "evaluated", "pruned"},
		"pareto.annotate_latencies": {"points", "u", "p", "kernel"},
	}
	if len(events) != len(want) {
		t.Fatalf("trace holds %d spans, want one sweep and one annotation:\n%s", len(events), buf.String())
	}
	for _, ev := range events {
		for _, arg := range want[ev.Name] {
			if _, ok := ev.Args[arg]; !ok {
				t.Errorf("span %s lacks arg %q: %v", ev.Name, arg, ev.Args)
			}
		}
		delete(want, ev.Name)
	}
	if len(want) != 0 {
		t.Fatalf("trace lacks %v:\n%s", want, buf.String())
	}

	rc := telemetry.NewRequestContext("")
	ctx := telemetry.WithRequest(context.Background(), rc)
	var st SweepStats
	if front, err = FrontierSweep(limits, wl, model.Options{}, SweepOptions{Context: ctx, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if _, err := AnnotateLatencies(ctx, front, 0.5, 95, queueing.Spec{}, 0); err != nil {
		t.Fatal(err)
	}
	if n := reg.Tracer().Len(); n != 2 {
		t.Fatalf("request-scoped sweep and annotation left %d spans, want the 2 unscoped ones", n)
	}
	var names []string
	for _, ev := range rc.Timeline() {
		names = append(names, ev.Name)
	}
	if got := strings.Join(names, " "); got != "pareto.frontier_sweep pareto.annotate_latencies" {
		t.Fatalf("request timeline %q", got)
	}
	if got := rc.Attr(telemetry.AttrConfigsEvaluated); got != st.Evaluated {
		t.Fatalf("request attributes %d configurations evaluated, sweep %d", got, st.Evaluated)
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
// the sequential reference one.
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
	seq, err := frontierSweepReference(limits, wl, model.Options{}, SweepOptions{})
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
