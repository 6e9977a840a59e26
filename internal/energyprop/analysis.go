package energyprop

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/queueing"
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

// Sweep evaluates f at each utilization of the grid and returns the
// values; a helper for emitting figure series.
func (a *Analysis) Sweep(grid []float64, f func(u float64) float64) []float64 {
	out := make([]float64, len(grid))
	for i, u := range grid {
		out[i] = f(u)
	}
	return out
}

// ResponsePercentilesAt returns the p-th percentile response time at
// every utilization of the grid, in order: the U x percentile surface
// behind Figures 11 and 12, one ResponsePercentileAt solve per point.
func (a *Analysis) ResponsePercentilesAt(grid []float64, p float64) ([]float64, error) {
	out := make([]float64, len(grid))
	for i, u := range grid {
		r, err := a.ResponsePercentileAt(u, p)
		if err != nil {
			return nil, fmt.Errorf("energyprop: response percentile at u=%g: %w", u, err)
		}
		out[i] = r
	}
	return out, nil
}

// String summarizes the analysis.
func (a *Analysis) String() string {
	m := a.Metrics()
	return fmt.Sprintf("%s on %s: T=%v E=%v idle=%v peak=%v DPR=%.2f IPR=%.2f EPM=%.2f",
		a.Result.Workload, a.Result.Config, a.Result.Time, a.Result.Energy,
		a.Result.IdlePower, a.Result.BusyPower, m.DPR, m.IPR, m.EPM)
}
