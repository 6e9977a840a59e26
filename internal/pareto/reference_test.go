package pareto

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// frontierSweepReference is the obviously correct pipeline the fast
// engine is tested and benchmarked against: enumerate every
// configuration, apply the Budget, evaluate the survivors through
// model.Evaluate and take the Frontier of the evaluated points.
func frontierSweepReference(limits []cluster.Limit, wl *workload.Profile, opt model.Options, sw SweepOptions) ([]Point, error) {
	span := telemetry.Start(sw.Context, "pareto.frontier_sweep").
		Arg("workload", wl.Name).Arg("engine", "reference")
	defer span.End()
	reg := telemetry.Global()
	evaluated := reg.Counter("pareto.configs_evaluated")
	skipped := reg.Counter("pareto.configs_skipped")
	filtered := reg.Counter("pareto.configs_filtered")
	ctx := sw.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var st SweepStats
	var points []Point
	err := cluster.Enumerate(limits, func(cfg cluster.Config) bool {
		if sw.Budget != nil && !sw.Budget.Fits(cfg) {
			filtered.Inc()
			st.Filtered++
		} else if res, err := model.Evaluate(cfg, wl, opt); err != nil {
			skipped.Inc()
			st.Skipped++
		} else {
			evaluated.Inc()
			st.Evaluated++
			points = append(points, Point{Config: cfg, Time: res.Time, Energy: res.Energy, Result: res})
		}
		sw.Progress.Tick()
		// Stop enumerating once cancelled; the error surfaces below.
		return ctx.Err() == nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rc := telemetry.RequestFrom(ctx)
	rc.Add(telemetry.AttrConfigsEvaluated, st.Evaluated)
	rc.Add(telemetry.AttrConfigsFiltered, st.Filtered)
	if sw.Stats != nil {
		*sw.Stats = st
	}
	sw.Progress.Done()
	return Frontier(points), nil
}
