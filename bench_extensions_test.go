package repro_test

// Extension benchmarks: experiments beyond the paper's evaluation that
// exercise the optional/future-work directions it names — dynamic
// adaptation (Section I), the full DVFS configuration space (footnote 4
// enumerates it but the figures only vary node counts), and a
// sensitivity generalization of the Section III-E PPR asymmetry.

import (
	"context"
	"testing"

	"repro"
	"repro/internal/adaptive"
	"repro/internal/cluster"
	"repro/internal/colocate"
	"repro/internal/energyprop"
	"repro/internal/hardware"
	"repro/internal/loadtrace"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/replay"
	"repro/internal/simulator"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// BenchmarkExtensionAdaptiveEnsemble plans the load-dependent
// configuration ensemble over the Figure-9 mixes and reports its mean
// power saving and proportionality gain over the static reference.
func BenchmarkExtensionAdaptiveEnsemble(b *testing.B) {
	s := newSuite(b)
	wl, err := s.Registry.Lookup(workload.NameEP)
	if err != nil {
		b.Fatal(err)
	}
	var cands []*energyprop.Analysis
	for _, m := range [][2]int{{32, 12}, {25, 10}, {25, 8}, {25, 7}, {25, 5}} {
		cfg, err := mix(s, m[0], m[1])
		if err != nil {
			b.Fatal(err)
		}
		a, err := energyprop.Analyze(cfg, wl, model.Options{}, 100)
		if err != nil {
			b.Fatal(err)
		}
		cands = append(cands, a)
	}
	grid := stats.Linspace(0.05, 0.9, 18)
	var savings, epmGain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := adaptive.Plan(cands, adaptive.Policy{}, grid)
		if err != nil {
			b.Fatal(err)
		}
		m, err := plan.Metrics()
		if err != nil {
			b.Fatal(err)
		}
		savings = plan.Savings()
		epmGain = m.EPM - cands[0].Metrics().EPM
	}
	b.ReportMetric(100*savings, "power-saving-%")
	b.ReportMetric(epmGain, "EPM-gain")
}

// BenchmarkExtensionSensitivityPPR sweeps the wimpy-to-brawny PPR ratio
// and reports the crossover ratio where the sub-linear mix stops being
// more energy efficient per unit of work.
func BenchmarkExtensionSensitivityPPR(b *testing.B) {
	s := newSuite(b)
	ratios := stats.Linspace(0.25, 4, 16)
	var crossover float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.SensitivityPPRRatio(ratios)
		if err != nil {
			b.Fatal(err)
		}
		crossover = 0
		for j := 1; j < len(rows); j++ {
			if rows[j-1].EnergyPerUnitRatio >= 1 && rows[j].EnergyPerUnitRatio < 1 {
				// Linear interpolation between grid points.
				a, bb := rows[j-1], rows[j]
				frac := (a.EnergyPerUnitRatio - 1) / (a.EnergyPerUnitRatio - bb.EnergyPerUnitRatio)
				crossover = a.Ratio + frac*(bb.Ratio-a.Ratio)
				break
			}
		}
	}
	b.ReportMetric(crossover, "efficiency-crossover-ratio")
}

// BenchmarkExtensionFullSpacePareto computes the Pareto frontier over
// the complete 32 A9 x 12 K10 space with all core and DVFS choices
// (~139k configurations) and reports how many frontier points throttle
// cores or frequency.
func BenchmarkExtensionFullSpacePareto(b *testing.B) {
	s := newSuite(b)
	var size, frontier, throttled int
	for i := 0; i < b.N; i++ {
		res, err := s.FullSpaceFrontier(workload.NameEP, 32, 12)
		if err != nil {
			b.Fatal(err)
		}
		size = res.SpaceSize
		frontier = len(res.Frontier)
		throttled = res.ThrottledPoints
	}
	b.ReportMetric(float64(size), "configs")
	b.ReportMetric(float64(frontier), "frontier-points")
	b.ReportMetric(float64(throttled), "throttled-points")
}

// BenchmarkAblationServiceJitter quantifies the deterministic-service
// assumption of the paper's M/D/1 analysis: it compares the exact
// percentile against a G/G/1 simulation whose service times come from
// the cluster simulator with all jitter sources active.
func BenchmarkAblationServiceJitter(b *testing.B) {
	s := newSuite(b)
	var errPct, cv float64
	for i := 0; i < b.N; i++ {
		rv, err := s.ValidateResponseModel(workload.NameEP, 8, 4, 0.6, 64, 200000, uint64(i+11))
		if err != nil {
			b.Fatal(err)
		}
		errPct, cv = rv.ErrPct, rv.ServiceCV
	}
	b.ReportMetric(errPct, "p95-model-err-%")
	b.ReportMetric(100*cv, "service-CV-%")
}

// BenchmarkCrommelinPrecisionScaling measures the exact M/D/1 p99 cost
// as utilization grows. With -benchtime=1x each sub-benchmark is one
// cold solve; longer runs measure the percentile-cache hit.
func BenchmarkCrommelinPrecisionScaling(b *testing.B) {
	for _, rho := range []float64{0.5, 0.8, 0.95} {
		rho := rho
		b.Run(benchName(rho), func(b *testing.B) {
			q := repro.MD1{Lambda: rho, D: 1}
			for i := 0; i < b.N; i++ {
				if _, err := q.ResponsePercentile(99); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(rho float64) string {
	switch rho {
	case 0.5:
		return "rho-0.5"
	case 0.8:
		return "rho-0.8"
	default:
		return "rho-0.95"
	}
}

// BenchmarkAblationBatchArrivals quantifies the paper's batch submission
// pattern (Section II-C varies "jobs per batch"): at equal utilization,
// batching inflates the p95 response relative to single-job arrivals.
func BenchmarkAblationBatchArrivals(b *testing.B) {
	var inflate float64
	for i := 0; i < b.N; i++ {
		single := queueing.MD1{Lambda: 0.6, D: 1}
		p95single, err := single.ResponsePercentile(95)
		if err != nil {
			b.Fatal(err)
		}
		batched, err := queueing.NewBatchMD1FromUtilization(0.6, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		p95batch, err := batched.ResponsePercentile(95, queueing.SimOptions{
			Jobs: 200000, Warmup: 4000, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		inflate = p95batch / p95single
	}
	b.ReportMetric(inflate, "p95-inflation-B8-vs-B1")
}

// BenchmarkAblationStraggler quantifies how a single slow node breaks
// the static rate-matched mapping: makespan inflation with one 3x
// straggler among the validation cluster's 12 nodes.
func BenchmarkAblationStraggler(b *testing.B) {
	s := newSuite(b)
	wl, err := s.Registry.Lookup(workload.NameEP)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := mix(s, 8, 4)
	if err != nil {
		b.Fatal(err)
	}
	clean := s.Effects
	clean.StragglerProb = 0
	slow := clean
	slow.StragglerProb = 0.999 // at least one straggler, deterministic enough
	slow.StragglerSlowdown = 3
	var inflation float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base, err := simulator.Run(cfg, wl, clean, s.Meter, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		broken, err := simulator.Run(cfg, wl, slow, s.Meter, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		inflation = float64(broken.Time) / float64(base.Time)
	}
	b.ReportMetric(inflation, "makespan-inflation-x")
}

// BenchmarkExtensionDiurnalTrace plays a 24-hour diurnal load trace
// (mean 30%, the over-provisioning operating point the paper cites)
// against static and adaptive deployments, reporting the energy saving.
func BenchmarkExtensionDiurnalTrace(b *testing.B) {
	s := newSuite(b)
	wl, err := s.Registry.Lookup(workload.NameEP)
	if err != nil {
		b.Fatal(err)
	}
	var cands []*energyprop.Analysis
	for _, m := range [][2]int{{32, 12}, {25, 10}, {25, 8}, {25, 7}, {25, 5}} {
		cfg, err := mix(s, m[0], m[1])
		if err != nil {
			b.Fatal(err)
		}
		a, err := energyprop.Analyze(cfg, wl, model.Options{}, 100)
		if err != nil {
			b.Fatal(err)
		}
		cands = append(cands, a)
	}
	tr, err := replay.FromShape(loadtrace.Diurnal{Mean: 0.30, Amplitude: 0.25, Period: 86400, PeakAt: 14 * 3600}, 900, 96)
	if err != nil {
		b.Fatal(err)
	}
	var saving float64
	var switches int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := replay.Options{Policy: adaptive.Policy{Hysteresis: 0.05}, DiscardSteps: true}
		static, err := replay.Run(context.Background(), cands, tr, opt)
		if err != nil {
			b.Fatal(err)
		}
		opt.Adaptive = true
		adapted, err := replay.Run(context.Background(), cands, tr, opt)
		if err != nil {
			b.Fatal(err)
		}
		saving = 1 - adapted.Summary.TotalEnergyJoules/static.Summary.TotalEnergyJoules
		switches = adapted.Summary.Switches
	}
	b.ReportMetric(100*saving, "energy-saving-%")
	b.ReportMetric(float64(switches), "switches-per-day")
}

// BenchmarkExtensionDegreeOfHeterogeneity evaluates 1-, 2- and 3-type
// configuration spaces (the paper's d_max never exceeds 2) and reports
// how the sub-linear frontier grows with the degree.
func BenchmarkExtensionDegreeOfHeterogeneity(b *testing.B) {
	s := newSuite(b)
	var rows []analysisDegreeRow
	for i := 0; i < b.N; i++ {
		r, err := s.DegreeStudy(8, 42)
		if err != nil {
			b.Fatal(err)
		}
		rows = make([]analysisDegreeRow, len(r))
		for j, v := range r {
			rows[j] = analysisDegreeRow{sublinear: v.Sublinear, frontier: v.FrontierSize}
		}
	}
	if len(rows) == 3 {
		b.ReportMetric(float64(rows[1].sublinear), "sublinear-d2")
		b.ReportMetric(float64(rows[2].sublinear), "sublinear-d3")
	}
}

type analysisDegreeRow struct{ sublinear, frontier int }

// BenchmarkExtensionColocation partitions a 16 A9 + 8 K10 pool between
// EP (wimpy-favoring) and x264 (brawny-favoring) and reports the energy
// gain of the optimal affinity partition over a proportional split.
func BenchmarkExtensionColocation(b *testing.B) {
	s := newSuite(b)
	ep, err := s.Registry.Lookup(workload.NameEP)
	if err != nil {
		b.Fatal(err)
	}
	x264, err := s.Registry.Lookup(workload.NameX264)
	if err != nil {
		b.Fatal(err)
	}
	a9, _ := s.Catalog.Lookup("A9")
	k10, _ := s.Catalog.Lookup("K10")
	pool := colocate.Pool{Types: []*hardware.NodeType{a9, k10}, Counts: []int{16, 8}}
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, prop, err := pool.Best(ep, x264, 0, 0, model.Options{})
		if err != nil {
			b.Fatal(err)
		}
		gain = colocate.AffinityGain(best, prop)
	}
	b.ReportMetric(100*gain, "affinity-gain-%")
}

// BenchmarkAblationUplinkContention quantifies the model's uncontended-
// I/O assumption: an oversubscribed switch uplink slows the I/O-bound
// memcached and inflates the validation error the paper would have seen
// on a cheaper network.
func BenchmarkAblationUplinkContention(b *testing.B) {
	s := newSuite(b)
	mc, err := s.Registry.Lookup(workload.NameMemcached)
	if err != nil {
		b.Fatal(err)
	}
	a9, err := s.Catalog.Lookup("A9")
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := cluster.NewConfig(cluster.FullNodes(a9, 16))
	if err != nil {
		b.Fatal(err)
	}
	congested := s.Effects
	congested.UplinkBandwidth = units.BytesPerSecond(50e6) // 2x oversubscribed
	congested.NodesPerUplink = 8
	var baseErr, congErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base, err := simulator.Validate(cfg, mc, s.Effects, s.Meter, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		cong, err := simulator.Validate(cfg, mc, congested, s.Meter, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		baseErr, congErr = base.TimeErrPct, cong.TimeErrPct
	}
	b.ReportMetric(baseErr, "time-err-%-clean")
	b.ReportMetric(congErr, "time-err-%-congested")
}

// BenchmarkValidationPowerCurve validates the Section II-B utilization
// model empirically: it replays Poisson arrivals through the end-to-end
// window simulation at several utilizations and reports the worst
// deviation of the measured mean power from the linear P(U) model — the
// measured counterpart of Figures 5 and 7.
func BenchmarkValidationPowerCurve(b *testing.B) {
	s := newSuite(b)
	wl, err := s.Registry.Lookup(workload.NameEP)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := mix(s, 8, 4)
	if err != nil {
		b.Fatal(err)
	}
	mres, err := model.Evaluate(cfg, wl, model.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, u := range []float64{0.25, 0.5, 0.75} {
			res, err := simulator.RunWindow(cfg, wl, s.Effects, s.Meter, simulator.WindowOptions{
				ArrivalRate:    units.PerSecond(u / float64(mres.Time)),
				Window:         units.Seconds(8000 * float64(mres.Time)),
				ServiceSamples: 32,
				Seed:           uint64(i*31 + 7),
			})
			if err != nil {
				b.Fatal(err)
			}
			want := float64(mres.IdlePower) + res.BusyFraction*float64(mres.BusyPower-mres.IdlePower)
			dev := stats.RelErr(float64(res.MeanPower), want)
			if dev > worst {
				worst = dev
			}
		}
	}
	b.ReportMetric(100*worst, "max-power-dev-%")
}

// BenchmarkEnumerationThroughput measures raw configuration enumeration
// speed over the full footnote-4 space.
func BenchmarkEnumerationThroughput(b *testing.B) {
	s := newSuite(b)
	arm, err := s.Catalog.Lookup("A9")
	if err != nil {
		b.Fatal(err)
	}
	amd, err := s.Catalog.Lookup("K10")
	if err != nil {
		b.Fatal(err)
	}
	limits := []cluster.Limit{
		{Type: arm, MaxNodes: 10},
		{Type: amd, MaxNodes: 10},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := cluster.Enumerate(limits, func(cluster.Config) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
		if n != 36380 {
			b.Fatalf("enumerated %d", n)
		}
	}
}
