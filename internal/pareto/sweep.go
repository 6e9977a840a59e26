package pareto

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// SweepStats is one sweep's accounting, filled through
// SweepOptions.Stats. The four counts always sum to
// cluster.SpaceSize(limits) (the invariant the pareto.configs_*
// counters obey globally). A sweep that reuses its shared table's last
// walk (see SweepOptions.Table) reports that walk's accounting, field
// for field: the counts describe the space and the budget, not the
// work this call did.
type SweepStats struct {
	// Evaluated configurations are those the walk reached that the
	// model can run: run through it, or certified covered by the
	// running staircase without a run (pareto.configs_certified).
	Evaluated int64
	// Skipped configurations fit the budget but cannot run: a group has
	// no demand vector, or no group has a positive execution rate.
	Skipped int64
	// Filtered configurations exceed SweepOptions.Budget.
	Filtered int64
	// Pruned configurations fit the budget and can run, but hold a
	// choice off its node type's dominance staircase, so the fast
	// engine proved them off the frontier without evaluating them
	// (always 0 with NoPrune set).
	// Evaluated+Pruned is what a sweep evaluating every configuration
	// would count as evaluated.
	Pruned int64
}

// SweepOptions bundles the knobs of a frontier sweep.
type SweepOptions struct {
	// Workers was the intra-sweep fan-out width.
	//
	// Deprecated: ignored; the sweep runs on the caller's goroutine.
	Workers int
	// Progress, when non-nil, is ticked once per configuration of the
	// space (in bulk for those the fast engine counts in closed form,
	// and for the whole space when the sweep reuses a walk) — the
	// count-based reporter behind the CLIs' -progress flag.
	Progress *telemetry.Progress
	// Budget, when non-nil, caps the configurations' peak power: those
	// over the cap are counted as filtered and never reach the model.
	// Its cost adds up per group, so the fast engine counts filtered
	// configurations in closed form and keeps its reduction exact.
	Budget *cluster.PowerBudget
	// NoPrune makes the fast engine walk every configuration instead of
	// the product of the per-type dominance staircases. The frontier is
	// identical either way. It is kept only for the repository
	// benchmark's full-walk comparison and goes with Workers once that
	// benchmark stops setting both.
	NoPrune bool
	// Context, when non-nil, cancels the sweep: the walk polls it every
	// few thousand configurations. A cancelled sweep returns the
	// context's error with no partial frontier; the fast engine flushes
	// nothing into the global counters or Stats. When it carries a
	// telemetry.RequestContext, that request also receives the sweep's
	// attribution (configurations evaluated, pruned and filtered) and
	// its pareto.frontier_sweep phase.
	Context context.Context
	// Table, when non-nil, is a pre-built unit-calc table the sweep
	// uses instead of building its own. It must have been built by
	// model.NewTable for exactly this sweep's workload pointer and
	// options (checked; mismatch is an error). Serving callers use it
	// to amortize table construction and memo warm-up across repeated
	// sweeps of the same workload. The table keeps the last reduced
	// space swept on it, and that space the outcome of its last
	// complete walk: a sweep of the same limits, budget switch model
	// and NoPrune skips the build, and one at the same budget cap as
	// well skips the walk and only materializes fresh Points. The
	// answer is the same either way (pareto.spaces_built counts
	// builds; pareto.configs_reused, reused evaluations).
	Table *model.Table
	// Stats, when non-nil, receives this sweep's own accounting —
	// per-call counts beside the process-global pareto.* counters.
	Stats *SweepStats
}
