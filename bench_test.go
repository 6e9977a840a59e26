package repro_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation section (see DESIGN.md's experiment index) and
// reports headline quantities as custom benchmark metrics, so a plain
//
//	go test -bench=. -benchmem
//
// reproduces the study end to end. The ablation benches quantify the
// design choices DESIGN.md calls out: the rate-matched work split, the
// exact M/D/1 percentiles versus Monte-Carlo, switch power in the budget
// substitution, and the DVFS power-scaling exponent.

import (
	"testing"

	"repro"
	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

func newSuite(b *testing.B) *repro.Suite {
	b.Helper()
	s, err := repro.NewSuite()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable4Validation regenerates Table 4: model-versus-measured
// time and energy errors across the six workloads. Reports the maximum
// errors observed.
func BenchmarkTable4Validation(b *testing.B) {
	s := newSuite(b)
	var maxTime, maxEnergy float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Table4(uint64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		maxTime, maxEnergy = 0, 0
		for _, r := range rows {
			if r.TimeErrPct > maxTime {
				maxTime = r.TimeErrPct
			}
			if r.EnergyErrPct > maxEnergy {
				maxEnergy = r.EnergyErrPct
			}
		}
	}
	b.ReportMetric(maxTime, "max-time-err-%")
	b.ReportMetric(maxEnergy, "max-energy-err-%")
}

// BenchmarkTable6PPR regenerates Table 6 and reports the worst relative
// deviation from the published PPR values.
func BenchmarkTable6PPR(b *testing.B) {
	s := newSuite(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Table6()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			for _, pair := range [][2]float64{{r.A9, r.PaperA9}, {r.K10, r.PaperK10}} {
				d := pair[0]/pair[1] - 1
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
		}
	}
	b.ReportMetric(100*worst, "max-ppr-dev-%")
}

// BenchmarkTable7SingleNode regenerates Table 7's single-node metrics.
func BenchmarkTable7SingleNode(b *testing.B) {
	s := newSuite(b)
	var rows []analysis.MetricsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Table7()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkTable8Cluster regenerates Table 8's cluster-wide metrics for
// the 1 kW substitution ladder.
func BenchmarkTable8Cluster(b *testing.B) {
	s := newSuite(b)
	var rows []analysis.MetricsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Table8()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkFigure2Metrics regenerates the conceptual metric curves.
func BenchmarkFigure2Metrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if series := analysis.Figure2(); len(series) != 3 {
			b.Fatal("figure 2 malformed")
		}
	}
}

// BenchmarkFigure5NodeProportionality regenerates Figures 5a-5c.
func BenchmarkFigure5NodeProportionality(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		for _, wl := range []string{workload.NameEP, workload.NameX264, workload.NameBlackscholes} {
			if _, err := s.Figure5(wl); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure6NodePPR regenerates Figures 6a-6c.
func BenchmarkFigure6NodePPR(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		for _, wl := range []string{workload.NameEP, workload.NameX264, workload.NameBlackscholes} {
			if _, err := s.Figure6(wl); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure7ClusterProportionality regenerates Figure 7 (EP on
// the budget ladder).
func BenchmarkFigure7ClusterProportionality(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure7(workload.NameEP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8ClusterPPR regenerates Figure 8.
func BenchmarkFigure8ClusterPPR(b *testing.B) {
	s := newSuite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Figure8(workload.NameEP); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9ParetoEP regenerates Figure 9: Pareto-frontier
// configurations of EP against the 32A9+12K10 reference, reporting how
// many plotted configurations scale the proportionality wall.
func BenchmarkFigure9ParetoEP(b *testing.B) {
	s := newSuite(b)
	var sub int
	for i := 0; i < b.N; i++ {
		fig, err := s.FigurePareto(workload.NameEP, 6)
		if err != nil {
			b.Fatal(err)
		}
		sub = fig.SublinearCount()
	}
	b.ReportMetric(float64(sub), "sublinear-configs")
}

// BenchmarkFigure10ParetoX264 regenerates Figure 10.
func BenchmarkFigure10ParetoX264(b *testing.B) {
	s := newSuite(b)
	var sub int
	for i := 0; i < b.N; i++ {
		fig, err := s.FigurePareto(workload.NameX264, 6)
		if err != nil {
			b.Fatal(err)
		}
		sub = fig.SublinearCount()
	}
	b.ReportMetric(float64(sub), "sublinear-configs")
}

// BenchmarkFigure11ResponseTimeEP regenerates Figure 11 and reports the
// across-mix response-time spread at mid utilization (the paper's
// "sub-millisecond" claim for EP).
func BenchmarkFigure11ResponseTimeEP(b *testing.B) {
	s := newSuite(b)
	var spread float64
	for i := 0; i < b.N; i++ {
		series, err := s.FigureResponse(workload.NameEP, 95)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := analysis.ResponseSpread(series)
		if err != nil {
			b.Fatal(err)
		}
		spread = sp[len(sp)/2]
	}
	b.ReportMetric(spread*1000, "p95-spread-ms@~60%")
}

// BenchmarkFigure12ResponseTimeX264 regenerates Figure 12 (the
// seconds-scale spread for x264).
func BenchmarkFigure12ResponseTimeX264(b *testing.B) {
	s := newSuite(b)
	var spread float64
	for i := 0; i < b.N; i++ {
		series, err := s.FigureResponse(workload.NameX264, 95)
		if err != nil {
			b.Fatal(err)
		}
		sp, err := analysis.ResponseSpread(series)
		if err != nil {
			b.Fatal(err)
		}
		spread = sp[len(sp)/2]
	}
	b.ReportMetric(spread, "p95-spread-s@~60%")
}

// BenchmarkConfigSpaceEnumeration enumerates the footnote-4 space
// (36,380 configurations of 10 ARM + 10 AMD nodes).
func BenchmarkConfigSpaceEnumeration(b *testing.B) {
	s := newSuite(b)
	var n int
	for i := 0; i < b.N; i++ {
		arm, err := s.Catalog.Lookup("A9")
		if err != nil {
			b.Fatal(err)
		}
		amd, err := s.Catalog.Lookup("K10")
		if err != nil {
			b.Fatal(err)
		}
		n = 0
		err = cluster.Enumerate([]cluster.Limit{
			{Type: arm, MaxNodes: 10},
			{Type: amd, MaxNodes: 10},
		}, func(cluster.Config) bool { n++; return true })
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "configs")
}

// --- Ablations -------------------------------------------------------

// BenchmarkAblationWorkSplit compares the paper's rate-matched work
// split against a naive equal-per-node split, reporting the time penalty
// of ignoring heterogeneity when dividing work.
func BenchmarkAblationWorkSplit(b *testing.B) {
	s := newSuite(b)
	wl, err := s.Registry.Lookup(workload.NameEP)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := mix(s, 32, 12)
	if err != nil {
		b.Fatal(err)
	}
	var penalty float64
	for i := 0; i < b.N; i++ {
		res, err := model.Evaluate(cfg, wl, model.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// Naive split: each node gets the same number of units; the
		// makespan is set by the slowest node type.
		totalNodes := cfg.Nodes()
		perNode := wl.JobUnits / float64(totalNodes)
		worst := units.Seconds(0)
		for _, g := range cfg.Groups {
			d, err := wl.Demand(g.Type.Name)
			if err != nil {
				b.Fatal(err)
			}
			tCore := units.Seconds(perNode * float64(d.CoreCycles) / (float64(g.Cores) * float64(g.Freq)))
			tMem := units.Seconds(perNode * float64(d.MemCycles) / float64(g.Freq))
			t := tCore
			if tMem > t {
				t = tMem
			}
			if t > worst {
				worst = t
			}
		}
		penalty = float64(worst) / float64(res.Time)
	}
	b.ReportMetric(penalty, "equal-split-slowdown-x")
}

// BenchmarkAblationMD1VsSim compares the exact Crommelin percentile with
// the Lindley Monte-Carlo estimate at rho=0.9: wall cost of each and the
// Monte-Carlo's deviation from the exact value.
func BenchmarkAblationMD1VsSim(b *testing.B) {
	q := queueing.MD1{Lambda: 0.9, D: 1}
	exact, err := q.ResponsePercentile(95)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("crommelin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.ResponsePercentile(95); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lindley-200k", func(b *testing.B) {
		service, err := queueing.ServiceSampler(q.D, 0)
		if err != nil {
			b.Fatal(err)
		}
		arrival := func(rng *stats.RNG) float64 { return rng.ExpFloat64(q.Lambda) }
		var approx float64
		for i := 0; i < b.N; i++ {
			sim, err := queueing.SimulateGG1(arrival, service, queueing.SimOptions{Jobs: 200000, Warmup: 5000, Seed: uint64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			v, err := sim.Percentile(95)
			if err != nil {
				b.Fatal(err)
			}
			approx = v
		}
		dev := 100 * (approx/exact - 1)
		if dev < 0 {
			dev = -dev
		}
		b.ReportMetric(dev, "abs-dev-vs-exact-%")
	})
}

// BenchmarkAblationSwitchPower quantifies the switch's role in the 8:1
// substitution: without the 20 W-per-8-nodes switch share the ratio
// becomes 12:1 and the ladder changes shape.
func BenchmarkAblationSwitchPower(b *testing.B) {
	s := newSuite(b)
	var with, without int
	for i := 0; i < b.N; i++ {
		spec, err := cluster.DefaultBudget(s.Catalog)
		if err != nil {
			b.Fatal(err)
		}
		with = spec.SubstitutionRatio()
		spec.Switch.PowerPerSwitch = 0
		without = spec.SubstitutionRatio()
	}
	b.ReportMetric(float64(with), "ratio-with-switch")
	b.ReportMetric(float64(without), "ratio-without-switch")
}

// BenchmarkAblationFrequencyScaling sweeps the DVFS dynamic-power
// exponent for a compute-bound workload and reports the energy penalty
// of running at the lowest frequency instead of the highest. The system
// races to idle under any exponent — the idle floor dominates — but the
// penalty shrinks substantially as the exponent grows, which is why the
// exponent is a calibration-sensitive choice DESIGN.md flags.
func BenchmarkAblationFrequencyScaling(b *testing.B) {
	s := newSuite(b)
	wl, err := s.Registry.Lookup(workload.NameBlackscholes)
	if err != nil {
		b.Fatal(err)
	}
	var penalty1, penalty3 float64
	for i := 0; i < b.N; i++ {
		for _, exp := range []float64{1.0, 3.0} {
			a9base, err := s.Catalog.Lookup("A9")
			if err != nil {
				b.Fatal(err)
			}
			node := *a9base
			node.Freq.DynamicExponent = exp
			energyAt := func(f units.Hertz) float64 {
				cfg, err := cluster.NewConfig(cluster.Group{Type: &node, Count: 1, Cores: node.Cores, Freq: f})
				if err != nil {
					b.Fatal(err)
				}
				res, err := model.Evaluate(cfg, wl, model.Options{})
				if err != nil {
					b.Fatal(err)
				}
				return float64(res.Energy)
			}
			p := energyAt(node.FMin())/energyAt(node.FMax()) - 1
			if exp == 1.0 {
				penalty1 = p
			} else {
				penalty3 = p
			}
		}
	}
	b.ReportMetric(100*penalty1, "fmin-energy-penalty-%-exp1")
	b.ReportMetric(100*penalty3, "fmin-energy-penalty-%-exp3")
}

// BenchmarkModelEvaluate measures the raw model evaluation cost (the
// inner loop of every enumeration study).
func BenchmarkModelEvaluate(b *testing.B) {
	s := newSuite(b)
	wl, err := s.Registry.Lookup(workload.NameEP)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := mix(s, 32, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Evaluate(cfg, wl, model.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorRun measures the discrete-event simulator on the
// validation cluster.
func BenchmarkSimulatorRun(b *testing.B) {
	s := newSuite(b)
	wl, err := s.Registry.Lookup(workload.NameEP)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := mix(s, 8, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Simulate(cfg, wl, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func mix(s *repro.Suite, nA9, nK10 int) (cluster.Config, error) {
	a9, err := s.Catalog.Lookup("A9")
	if err != nil {
		return cluster.Config{}, err
	}
	k10, err := s.Catalog.Lookup("K10")
	if err != nil {
		return cluster.Config{}, err
	}
	var groups []cluster.Group
	if nA9 > 0 {
		groups = append(groups, cluster.FullNodes(a9, nA9))
	}
	if nK10 > 0 {
		groups = append(groups, cluster.FullNodes(k10, nK10))
	}
	return cluster.NewConfig(groups...)
}
