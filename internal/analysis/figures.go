package analysis

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/energyprop"
	"repro/internal/pareto"
	"repro/internal/report"
	"repro/internal/stats"
)

// idealSeries returns the ideal energy-proportionality line on the grid
// (power fraction equals utilization).
func idealSeries(grid []float64) report.Series {
	y := make([]float64, len(grid))
	for i, u := range grid {
		y[i] = 100 * u
	}
	x := make([]float64, len(grid))
	for i, u := range grid {
		x[i] = 100 * u
	}
	return report.Series{Label: "Ideal", X: x, Y: y}
}

// toPercentGrid converts a fraction grid to percent for figure axes.
func toPercentGrid(grid []float64) []float64 {
	x := make([]float64, len(grid))
	for i, u := range grid {
		x[i] = 100 * u
	}
	return x
}

// Figure2 generates the conceptual metric-relationship curves of
// Figure 2: the ideal line plus synthetic super-linear and sub-linear
// servers, with their computed metrics in the labels.
func Figure2() []report.Series {
	grid := stats.Linspace(0, 1, 101)
	super := make([]float64, len(grid))
	sub := make([]float64, len(grid))
	for i, u := range grid {
		// A convex/concave pair sharing idle 30% and peak 100%.
		super[i] = 30 + 70*math.Sqrt(u)
		sub[i] = 30 + 70*u*u
	}
	mkSeries := func(label string, p []float64) report.Series {
		c, err := energyprop.NewCurve(grid, p)
		if err != nil {
			panic(err)
		}
		m := energyprop.ComputeMetrics(c)
		return report.Series{
			Label: fmt.Sprintf("%s (IPR=%.2f EPM=%.2f chordLDR=%+.2f)", label, m.IPR, m.EPM, m.ChordLDR),
			X:     toPercentGrid(grid),
			Y:     p,
		}
	}
	return []report.Series{
		idealSeries(grid),
		mkSeries("super-linear", super),
		mkSeries("sub-linear", sub),
	}
}

// Figure5 returns the single-node energy-proportionality curves
// (percent of peak power versus utilization) for one workload on A9 and
// K10, plus the ideal line — Figures 5a-5c use EP, x264, blackscholes.
func (s *Suite) Figure5(wl string) ([]report.Series, error) {
	grid := utilGrid()
	series := []report.Series{idealSeries(grid)}
	for _, nodeName := range []string{"K10", "A9"} {
		node, err := s.node(nodeName)
		if err != nil {
			return nil, err
		}
		cfg, err := cluster.NewConfig(cluster.FullNodes(node, 1))
		if err != nil {
			return nil, err
		}
		a, err := s.analyze(cfg, wl)
		if err != nil {
			return nil, err
		}
		y := a.Sweep(grid, func(u float64) float64 { return 100 * a.NormalizedPowerAt(u) })
		series = append(series, report.Series{Label: nodeName, X: toPercentGrid(grid), Y: y})
	}
	return series, nil
}

// Figure6 returns the single-node PPR-versus-utilization curves for one
// workload (Figures 6a-6c).
func (s *Suite) Figure6(wl string) ([]report.Series, error) {
	grid := utilGrid()
	var series []report.Series
	for _, nodeName := range []string{"K10", "A9"} {
		node, err := s.node(nodeName)
		if err != nil {
			return nil, err
		}
		cfg, err := cluster.NewConfig(cluster.FullNodes(node, 1))
		if err != nil {
			return nil, err
		}
		a, err := s.analyze(cfg, wl)
		if err != nil {
			return nil, err
		}
		y := a.Sweep(grid, a.PPRAt)
		series = append(series, report.Series{Label: nodeName, X: toPercentGrid(grid), Y: y})
	}
	return series, nil
}

// ladderSeries evaluates one figure quantity across the 1 kW budget
// ladder mixes.
func (s *Suite) ladderSeries(wl string, f func(*energyprop.Analysis, float64) float64) ([]report.Series, error) {
	spec, err := cluster.DefaultBudget(s.Catalog)
	if err != nil {
		return nil, err
	}
	ladder, err := spec.Ladder()
	if err != nil {
		return nil, err
	}
	grid := utilGrid()
	var series []report.Series
	for _, m := range ladder {
		a, err := s.analyze(m.Config, wl)
		if err != nil {
			return nil, err
		}
		y := a.Sweep(grid, func(u float64) float64 { return f(a, u) })
		series = append(series, report.Series{
			Label: fmt.Sprintf("%d A9: %d K10", m.Wimpy, m.Brawny),
			X:     toPercentGrid(grid),
			Y:     y,
		})
	}
	return series, nil
}

// Figure7 returns the cluster-wide energy-proportionality curves of the
// budget ladder for one workload (the paper plots EP), plus the ideal.
func (s *Suite) Figure7(wl string) ([]report.Series, error) {
	series, err := s.ladderSeries(wl, func(a *energyprop.Analysis, u float64) float64 {
		return 100 * a.NormalizedPowerAt(u)
	})
	if err != nil {
		return nil, err
	}
	return append([]report.Series{idealSeries(utilGrid())}, series...), nil
}

// Figure8 returns the cluster-wide PPR curves of the budget ladder.
func (s *Suite) Figure8(wl string) ([]report.Series, error) {
	return s.ladderSeries(wl, (*energyprop.Analysis).PPRAt)
}

// ParetoFigure holds the Figure 9/10 outputs: the energy-proportionality
// curves of Pareto-frontier configurations normalized against the
// reference (maximum) configuration, plus which of them are sub-linear.
type ParetoFigure struct {
	Workload string
	// Reference is the maximum configuration whose peak power anchors
	// the ideal line.
	Reference cluster.Config
	// Series are the normalized power curves (percent of reference
	// peak), first entry the ideal line.
	Series []report.Series
	// Frontier holds the frontier points plotted.
	Frontier []pareto.Point
	// Sublinear flags, aligned with Frontier, mark configurations that
	// fall below the ideal line somewhere on the grid.
	Sublinear []bool
}

// FigurePareto computes the Figure 9/10 analysis for one workload over
// the <=32 A9 + <=12 K10 mix space (all cores at maximum frequency,
// matching the figure labels which vary only node counts). maxCurves
// bounds how many frontier configurations are plotted alongside the
// reference; the most and least powerful frontier points are kept.
func (s *Suite) FigurePareto(wl string, maxCurves int) (*ParetoFigure, error) {
	arm, err := s.node("A9")
	if err != nil {
		return nil, err
	}
	amd, err := s.node("K10")
	if err != nil {
		return nil, err
	}
	p, err := s.profile(wl)
	if err != nil {
		return nil, err
	}
	limits := []cluster.Limit{
		{Type: arm, MaxNodes: 32, FixCoresAndFreq: true},
		{Type: amd, MaxNodes: 12, FixCoresAndFreq: true},
	}
	frontier, err := pareto.FrontierSweep(limits, p, s.Opt, pareto.SweepOptions{
		Progress: s.progress("pareto "+wl, cluster.SpaceSize(limits)),
	})
	if err != nil {
		return nil, err
	}
	if len(frontier) == 0 {
		return nil, fmt.Errorf("analysis: empty Pareto frontier for %s", wl)
	}
	refCfg, err := s.mix(32, 12)
	if err != nil {
		return nil, err
	}
	refA, err := s.analyze(refCfg, wl)
	if err != nil {
		return nil, err
	}
	ref := energyprop.Reference{PeakPower: float64(refA.Result.BusyPower)}

	// Thin the frontier to maxCurves representatives, always keeping the
	// endpoints, spaced evenly along the frontier.
	picks := frontier
	if maxCurves > 1 && len(frontier) > maxCurves {
		picks = make([]pareto.Point, 0, maxCurves)
		for i := 0; i < maxCurves; i++ {
			idx := i * (len(frontier) - 1) / (maxCurves - 1)
			picks = append(picks, frontier[idx])
		}
	}
	// Deduplicate configs possibly repeated by the spacing. Allocate a
	// fresh slice: picks may alias frontier's backing array.
	seen := map[string]bool{}
	uniq := make([]pareto.Point, 0, len(picks))
	for _, pt := range picks {
		k := pt.Config.Key()
		if !seen[k] {
			seen[k] = true
			uniq = append(uniq, pt)
		}
	}
	picks = uniq

	grid := utilGrid()
	fig := &ParetoFigure{Workload: wl, Reference: refCfg}
	fig.Series = append(fig.Series, idealSeries(grid))

	// The reference configuration's own curve anchors the figure.
	refY := refA.Sweep(grid, func(u float64) float64 {
		return 100 * ref.NormalizedAt(refA.CurveRes, u)
	})
	fig.Series = append(fig.Series, report.Series{
		Label: refCfg.String(), X: toPercentGrid(grid), Y: refY,
	})

	for _, pt := range picks {
		if pt.Config.Key() == refCfg.Key() {
			fig.Frontier = append(fig.Frontier, pt)
			fig.Sublinear = append(fig.Sublinear, false)
			continue
		}
		a, err := s.analyze(pt.Config, wl)
		if err != nil {
			return nil, err
		}
		y := a.Sweep(grid, func(u float64) float64 {
			return 100 * ref.NormalizedAt(a.CurveRes, u)
		})
		_, _, sub := ref.SublinearRange(a.CurveRes, grid)
		fig.Series = append(fig.Series, report.Series{
			Label: pt.Config.String(), X: toPercentGrid(grid), Y: y,
		})
		fig.Frontier = append(fig.Frontier, pt)
		fig.Sublinear = append(fig.Sublinear, sub)
	}
	return fig, nil
}

// SublinearCount returns how many plotted frontier configurations are
// sub-linear against the reference.
func (f *ParetoFigure) SublinearCount() int {
	n := 0
	for _, s := range f.Sublinear {
		if s {
			n++
		}
	}
	return n
}

// ResponseMixes are the heterogeneous mixes whose 95th-percentile
// response times Figures 11 and 12 plot.
var ResponseMixes = [][2]int{{32, 12}, {25, 10}, {25, 8}, {25, 7}, {25, 5}}

// FigureResponse computes the 95th-percentile response time versus
// utilization for the named mixes (Figure 11 for EP, Figure 12 for
// x264), from the exact M/D/1 waiting-time distribution.
func (s *Suite) FigureResponse(wl string, percentile float64) ([]report.Series, error) {
	grid := respGrid()
	var series []report.Series
	for _, mix := range ResponseMixes {
		cfg, err := s.mix(mix[0], mix[1])
		if err != nil {
			return nil, err
		}
		a, err := s.analyze(cfg, wl)
		if err != nil {
			return nil, err
		}
		y, err := a.ResponsePercentilesAt(grid, percentile, s.Workers)
		if err != nil {
			return nil, fmt.Errorf("analysis: response percentiles for %s: %w", cfg, err)
		}
		series = append(series, report.Series{
			Label: fmt.Sprintf("%d A9: %d K10", mix[0], mix[1]),
			X:     toPercentGrid(grid),
			Y:     y,
		})
	}
	return series, nil
}

// ResponseSpread returns the maximum across-mix spread of the response
// series at each utilization — the quantity behind the paper's claim
// that sub-linear configurations have "minimal impact" for EP
// (sub-millisecond spread) but seconds-level impact for x264.
func ResponseSpread(series []report.Series) ([]float64, error) {
	if len(series) == 0 {
		return nil, fmt.Errorf("analysis: no series")
	}
	n := len(series[0].X)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range series {
			if len(s.Y) != n {
				return nil, fmt.Errorf("analysis: ragged series")
			}
			if s.Y[i] < lo {
				lo = s.Y[i]
			}
			if s.Y[i] > hi {
				hi = s.Y[i]
			}
		}
		out[i] = hi - lo
	}
	return out, nil
}

// FrontierSummary returns a compact text list of frontier configs sorted
// by time, for logs and EXPERIMENTS.md.
func FrontierSummary(points []pareto.Point) []string {
	sorted := make([]pareto.Point, len(points))
	copy(sorted, points)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	out := make([]string, len(sorted))
	for i, p := range sorted {
		out[i] = fmt.Sprintf("%s: T=%v E=%v", p.Config, p.Time, p.Energy)
	}
	return out
}
