package pareto

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// SweepStats is one sweep's accounting, filled through
// SweepOptions.Stats by both the fast and the Reference engines. The
// four counts always sum to cluster.SpaceSize(limits) (the invariant
// the pareto.configs_* counters obey globally).
type SweepStats struct {
	// Evaluated configurations reached the model and produced a result.
	Evaluated int64
	// Skipped configurations failed evaluation (missing demand vectors),
	// individually or as bulk-accounted subtrees.
	Skipped int64
	// Filtered configurations were rejected by SweepOptions.Filter
	// before evaluation.
	Filtered int64
	// Pruned configurations were eliminated by bound-based subtree
	// pruning without being enumerated (always 0 on the Reference path
	// and with NoPrune set).
	Pruned int64
}

// SweepOptions bundles the knobs of a frontier sweep.
type SweepOptions struct {
	// Workers was the intra-sweep fan-out width.
	//
	// Deprecated: ignored; the sweep runs on the caller's goroutine.
	Workers int
	// Progress, when non-nil, is ticked once per enumerated (evaluated,
	// skipped or filtered) configuration — the count-based reporter
	// behind the CLIs' -progress flag.
	Progress *telemetry.Progress
	// Filter, when non-nil, prunes configurations before evaluation
	// (e.g. a peak-power budget): configurations it rejects are counted
	// and ticked but never reach the model. The fast engine must
	// materialize a Config per candidate to apply it, so filtered
	// sweeps trade some of the allocation-free speedup for the budget
	// check.
	Filter func(cluster.Config) bool
	// NoPrune disables bound-based subtree pruning in the fast engine.
	// The frontier is identical either way (pruned subtrees are provably
	// outside it); the flag exists for A/B measurement, paranoia, and
	// callers that report the evaluated count.
	NoPrune bool
	// Reference forces the serial reference sweep (one full
	// model.Evaluate per configuration) instead of the memoized fast
	// engine — the differential-testing baseline.
	Reference bool
	// Request, when non-nil, receives request-scoped attribution
	// (configurations evaluated/pruned/filtered and the sweep phase on
	// the request timeline) beside the process-global pareto.* counters.
	// Request-serving callers set it from telemetry.RequestFrom(ctx);
	// batch CLIs leave it nil.
	Request *telemetry.RequestContext
	// Context, when non-nil, cancels the sweep: the walk polls it every
	// few thousand configurations. A cancelled sweep returns the
	// context's error with no partial frontier; the fast engine flushes
	// nothing into the global counters or Stats.
	Context context.Context
	// Table, when non-nil, is a pre-built unit-calc table the sweep
	// uses instead of building its own. It must have been built by
	// model.NewTable for exactly this sweep's workload pointer and
	// options (checked; mismatch is an error). Serving callers use it
	// to amortize table construction and memo warm-up across repeated
	// sweeps of the same workload. Fast path only; Reference sweeps
	// evaluate through model.Evaluate and take no table.
	Table *model.Table
	// Stats, when non-nil, receives this sweep's own accounting —
	// per-call counts beside the process-global pareto.* counters.
	Stats *SweepStats
}

// FrontierSweep is the instrumented frontier pipeline. By default it
// runs the memoized closed-form engine (see fastsweep.go): columnar
// choice space over a snapshotted unit-calc table, allocation-free
// evaluation, a running Pareto staircase and bound-based subtree
// pruning — with results identical, point for point, to evaluating
// the full space through model.Evaluate. SweepOptions.Reference
// selects that serial reference sweep instead.
func FrontierSweep(limits []cluster.Limit, wl *workload.Profile, opt model.Options, sw SweepOptions) ([]Point, error) {
	if !sw.Reference {
		return frontierSweepFast(limits, wl, opt, sw)
	}
	return frontierSweepReference(limits, wl, opt, sw)
}

// frontierSweepReference is the obviously correct pipeline the fast
// engine is tested and benchmarked against: enumerate every
// configuration, apply the Filter, evaluate the survivors through
// model.Evaluate and take the Frontier of the evaluated points.
func frontierSweepReference(limits []cluster.Limit, wl *workload.Profile, opt model.Options, sw SweepOptions) ([]Point, error) {
	span := telemetry.StartSpan("pareto.frontier_sweep").
		Arg("workload", wl.Name).Arg("engine", "reference")
	defer span.End()
	defer sw.Request.Phase("pareto.frontier_sweep")()
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
		if sw.Filter != nil && !sw.Filter(cfg) {
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
	sw.Request.Add(telemetry.AttrConfigsEvaluated, st.Evaluated)
	sw.Request.Add(telemetry.AttrConfigsFiltered, st.Filtered)
	if sw.Stats != nil {
		*sw.Stats = st
	}
	sw.Progress.Done()
	return Frontier(points), nil
}
