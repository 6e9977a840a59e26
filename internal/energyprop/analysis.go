package energyprop

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Analysis couples a configuration's time-energy model result with the
// M/D/1 utilization sweep, exposing the per-utilization quantities the
// paper's figures plot.
type Analysis struct {
	// Result is the time-energy model outcome for one job.
	Result model.Result
	// CurveRes is the power-versus-utilization curve.
	CurveRes Curve
}

// Analyze evaluates the model for (cfg, wl) and prepares the utilization
// curve with n panels.
func Analyze(cfg cluster.Config, wl *workload.Profile, opt model.Options, n int) (*Analysis, error) {
	res, err := model.Evaluate(cfg, wl, opt)
	if err != nil {
		return nil, err
	}
	return &Analysis{Result: res, CurveRes: FromModel(res, n)}, nil
}

// Metrics returns the cumulative proportionality metrics.
func (a *Analysis) Metrics() Metrics { return ComputeMetrics(a.CurveRes) }

// PowerAt returns the average power at utilization u.
func (a *Analysis) PowerAt(u float64) float64 { return a.CurveRes.At(u) }

// NormalizedPowerAt returns power as a fraction of this configuration's
// own peak (Figures 5 and 7).
func (a *Analysis) NormalizedPowerAt(u float64) float64 { return a.CurveRes.NormalizedAt(u) }

// ThroughputAt returns the work-unit throughput at utilization u. Jobs
// arrive at rate u/T_P and each carries JobUnits work, so throughput
// scales linearly with u up to the busy throughput.
func (a *Analysis) ThroughputAt(u float64) float64 {
	return u * float64(a.Result.Throughput)
}

// PPRAt returns the performance-to-power ratio at utilization u
// (Figures 6 and 8): throughput over average power.
func (a *Analysis) PPRAt(u float64) float64 {
	p := a.PowerAt(u)
	if p <= 0 {
		return 0
	}
	return a.ThroughputAt(u) / p
}

// Queue returns the M/D/1 queue at utilization u: service time T_P,
// arrival rate u/T_P.
func (a *Analysis) Queue(u float64) (queueing.MD1, error) {
	if a.Result.Time <= 0 {
		return queueing.MD1{}, errors.New("energyprop: zero service time")
	}
	return queueing.NewMD1FromUtilization(u, float64(a.Result.Time))
}

// KernelAt returns the queueing kernel selected by spec at utilization
// u, with the configuration's job time T_P as the aggregate service
// time. The default (zero) spec reproduces Queue's M/D/1 exactly; an
// M/G/1 spec adds service-time variability on top of the same mean, and
// an M/M/k spec spreads the capacity over k servers.
func (a *Analysis) KernelAt(u float64, spec queueing.Spec) (queueing.Kernel, error) {
	if a.Result.Time <= 0 {
		return nil, errors.New("energyprop: zero service time")
	}
	return spec.Build(u, float64(a.Result.Time))
}

// ResponsePercentileAt returns the p-th percentile response time at
// utilization u, from the exact M/D/1 waiting-time distribution
// (Figures 11 and 12 plot p=95).
func (a *Analysis) ResponsePercentileAt(u, p float64) (float64, error) {
	q, err := a.Queue(u)
	if err != nil {
		return 0, err
	}
	return q.ResponsePercentile(p)
}

// ResponsePercentileAtKernel is ResponsePercentileAt under an arbitrary
// kernel spec — the sensitivity axis behind the SCV sweeps in
// EXPERIMENTS.md. The default spec matches ResponsePercentileAt bit for
// bit.
func (a *Analysis) ResponsePercentileAtKernel(u, p float64, spec queueing.Spec) (float64, error) {
	k, err := a.KernelAt(u, spec)
	if err != nil {
		return 0, err
	}
	return k.ResponsePercentile(p)
}

// Sweep evaluates f at each utilization of the grid and returns the
// values; a helper for emitting figure series.
func (a *Analysis) Sweep(grid []float64, f func(u float64) float64) []float64 {
	out := make([]float64, len(grid))
	for i, u := range grid {
		out[i] = f(u)
	}
	return out
}

// SweepParallel is Sweep with a worker pool: f must be pure in u. Used
// for the per-point-expensive curves (percentile sweeps); trivially
// cheap f (linear power lookups) gains nothing over Sweep. workers <= 0
// uses GOMAXPROCS.
func (a *Analysis) SweepParallel(grid []float64, workers int, f func(u float64) float64) []float64 {
	span := telemetry.StartSpan("energyprop.sweep").Arg("points", len(grid))
	defer span.End()
	out := make([]float64, len(grid))
	sweep.ForEach(len(grid), workers, func(i int) { out[i] = f(grid[i]) })
	return out
}

// ResponsePercentilesAt computes the p-th percentile response time at
// every utilization of the grid — the U x percentile surface behind
// Figures 11/12 — fanning the searches across a worker pool. workers
// <= 0 uses GOMAXPROCS.
func (a *Analysis) ResponsePercentilesAt(grid []float64, p float64, workers int) ([]float64, error) {
	return a.ResponsePercentilesAtContext(context.Background(), grid, p, workers)
}

// ResponsePercentilesAtContext is ResponsePercentilesAt with
// cancellation: the sweep pool stops dispatching grid points once ctx is
// done and the ctx error is returned — the path by which a serving
// deadline reaches the percentile searches. Points already dispatched
// complete (one per worker at most).
func (a *Analysis) ResponsePercentilesAtContext(ctx context.Context, grid []float64, p float64, workers int) ([]float64, error) {
	return a.ResponsePercentilesAtKernelContext(ctx, grid, p, queueing.DefaultSpec(), workers)
}

// ResponsePercentilesAtKernelContext is the kernel-agnostic grid sweep:
// the same fan-out as ResponsePercentilesAtContext, but each point
// evaluates the kernel selected by spec. With the default spec it is
// ResponsePercentilesAtContext exactly (same solves, same bits).
func (a *Analysis) ResponsePercentilesAtKernelContext(ctx context.Context, grid []float64, p float64, spec queueing.Spec, workers int) ([]float64, error) {
	span := telemetry.StartSpan("energyprop.response_sweep").
		Arg("points", len(grid)).Arg("p", p).Arg("kernel", spec.String())
	defer span.End()
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("energyprop: response sweep: %w", err)
	}
	out := make([]float64, len(grid))
	errs := make([]error, len(grid))
	if err := sweep.ForEachContext(ctx, len(grid), workers, func(i int) {
		out[i], errs[i] = a.ResponsePercentileAtKernel(grid[i], p, spec)
	}); err != nil {
		return nil, fmt.Errorf("energyprop: response sweep: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("energyprop: response percentile at u=%g: %w", grid[i], err)
		}
	}
	return out, nil
}

// EnergyOverWindow returns the energy consumed during an observation
// window of length window at utilization u: the busy fraction draws
// P_busy, the remainder draws P_idle (Section II-B's E over period T).
func (a *Analysis) EnergyOverWindow(u, window float64) float64 {
	if window < 0 {
		return 0
	}
	busy := u * window
	idle := window - busy
	return busy*float64(a.Result.BusyPower) + idle*float64(a.Result.IdlePower)
}

// String summarizes the analysis.
func (a *Analysis) String() string {
	m := a.Metrics()
	return fmt.Sprintf("%s on %s: T=%v E=%v idle=%v peak=%v DPR=%.2f IPR=%.2f EPM=%.2f",
		a.Result.Workload, a.Result.Config, a.Result.Time, a.Result.Energy,
		a.Result.IdlePower, a.Result.BusyPower, m.DPR, m.IPR, m.EPM)
}
