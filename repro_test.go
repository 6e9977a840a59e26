package repro_test

// Integration tests of the public facade: every workflow the README
// advertises, exercised end to end through the repro package only.

import (
	"math"
	"testing"

	"repro"
	"repro/internal/stats"
)

func setupAPI(t *testing.T) (*repro.Catalog, *repro.WorkloadRegistry) {
	t.Helper()
	catalog := repro.DefaultCatalog()
	workloads, err := repro.PaperWorkloads(catalog)
	if err != nil {
		t.Fatal(err)
	}
	return catalog, workloads
}

func referenceMix(t *testing.T, catalog *repro.Catalog) repro.Config {
	t.Helper()
	a9, err := catalog.Lookup("A9")
	if err != nil {
		t.Fatal(err)
	}
	k10, err := catalog.Lookup("K10")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := repro.NewConfig(repro.FullNodes(a9, 32), repro.FullNodes(k10, 12))
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestQuickstartWorkflow(t *testing.T) {
	catalog, workloads := setupAPI(t)
	cfg := referenceMix(t, catalog)
	ep, err := workloads.Lookup("EP")
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Evaluate(cfg, ep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Energy <= 0 {
		t.Fatalf("degenerate result: %v / %v", res.Time, res.Energy)
	}
	a, err := repro.Analyze(cfg, ep)
	if err != nil {
		t.Fatal(err)
	}
	m := a.Metrics()
	if m.IPR <= 0 || m.IPR >= 1 {
		t.Errorf("IPR = %g", m.IPR)
	}
	p95, err := a.ResponsePercentileAt(0.7, 95)
	if err != nil {
		t.Fatal(err)
	}
	if p95 <= float64(res.Time) {
		t.Errorf("p95 %g not above service time %v", p95, res.Time)
	}
}

func TestProportionalityMetricsWrapper(t *testing.T) {
	catalog, workloads := setupAPI(t)
	cfg := referenceMix(t, catalog)
	ep, err := workloads.Lookup("EP")
	if err != nil {
		t.Fatal(err)
	}
	m, err := repro.ProportionalityMetrics(cfg, ep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.EPM-(1-m.IPR)) > 1e-9 {
		t.Errorf("EPM %g != 1-IPR %g for the model's linear curve", m.EPM, 1-m.IPR)
	}
}

func TestParetoFrontierWorkflow(t *testing.T) {
	catalog, workloads := setupAPI(t)
	bs, err := workloads.Lookup("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	a9, _ := catalog.Lookup("A9")
	k10, _ := catalog.Lookup("K10")
	limits := []repro.Limit{
		{Type: a9, MaxNodes: 8, FixCoresAndFreq: true},
		{Type: k10, MaxNodes: 4, FixCoresAndFreq: true},
	}
	front, err := repro.ParetoFrontier(limits, bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(front); i++ {
		if front[i].Time <= front[i-1].Time || front[i].Energy >= front[i-1].Energy {
			t.Fatal("frontier not strictly improving")
		}
	}
}

func TestSimulateAndValidateWorkflow(t *testing.T) {
	catalog, workloads := setupAPI(t)
	a9, _ := catalog.Lookup("A9")
	k10, _ := catalog.Lookup("K10")
	cfg, err := repro.NewConfig(repro.FullNodes(a9, 4), repro.FullNodes(k10, 2))
	if err != nil {
		t.Fatal(err)
	}
	julius, err := workloads.Lookup("Julius")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := repro.Simulate(cfg, julius, 99)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Time <= 0 || sim.Measured.Energy <= 0 {
		t.Fatal("degenerate simulation")
	}
	row, err := repro.Validate(cfg, julius, 99)
	if err != nil {
		t.Fatal(err)
	}
	if row.TimeErrPct < 0 || row.TimeErrPct > 25 {
		t.Errorf("validation error %.1f%% out of band", row.TimeErrPct)
	}
}

func TestCustomWorkloadWorkflow(t *testing.T) {
	catalog, _ := setupAPI(t)
	wl := repro.NewWorkload("custom", "ops", 1e6)
	if err := wl.SetDemand("A9", repro.Demand{CoreCycles: 500, MemCycles: 50, Intensity: 0.4}); err != nil {
		t.Fatal(err)
	}
	a9, _ := catalog.Lookup("A9")
	cfg, err := repro.NewConfig(repro.FullNodes(a9, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Evaluate(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	// 1e6 units x 500 cycles over 2 nodes x 4 cores x 1.4 GHz.
	want := 1e6 * 500 / (2 * 4 * 1.4e9)
	if stats.RelErr(float64(res.Time), want) > 1e-9 {
		t.Errorf("time %v, want %g s", res.Time, want)
	}
}

func TestAdaptivePlanWorkflow(t *testing.T) {
	catalog, workloads := setupAPI(t)
	ep, err := workloads.Lookup("EP")
	if err != nil {
		t.Fatal(err)
	}
	a9, _ := catalog.Lookup("A9")
	k10, _ := catalog.Lookup("K10")
	var cands []*repro.Analysis
	for _, m := range [][2]int{{32, 12}, {25, 5}} {
		cfg, err := repro.NewConfig(repro.FullNodes(a9, m[0]), repro.FullNodes(k10, m[1]))
		if err != nil {
			t.Fatal(err)
		}
		a, err := repro.Analyze(cfg, ep)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, a)
	}
	plan, err := repro.PlanAdaptive(cands, repro.AdaptivePolicy{}, stats.Linspace(0.1, 0.9, 9))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range plan.Decisions {
		if d.Chosen < 0 {
			t.Fatalf("plan infeasible at load %g", d.LoadFrac)
		}
	}
	if plan.Savings() <= 0 {
		t.Errorf("no savings from adaptation: %g", plan.Savings())
	}
}

func TestBudgetWorkflow(t *testing.T) {
	catalog, _ := setupAPI(t)
	budget, err := repro.DefaultBudget(catalog)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := budget.Ladder()
	if err != nil {
		t.Fatal(err)
	}
	if len(ladder) != 5 {
		t.Fatalf("ladder has %d mixes, want 5", len(ladder))
	}
	if budget.SubstitutionRatio() != 8 {
		t.Errorf("substitution ratio %d, want 8", budget.SubstitutionRatio())
	}
}

func TestMD1PublicType(t *testing.T) {
	q := repro.MD1{Lambda: 50, D: 0.01} // utilization 0.5
	p95, err := q.ResponsePercentile(95)
	if err != nil {
		t.Fatal(err)
	}
	if p95 <= 0.01 {
		t.Errorf("p95 %g not above service time", p95)
	}
}

func TestSuiteFromFacade(t *testing.T) {
	s, err := repro.NewSuite()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Errorf("table 6 rows = %d", len(rows))
	}
}
