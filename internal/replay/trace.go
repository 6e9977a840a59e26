// Package replay is the trace-driven evaluation engine: it steps a
// cluster configuration (or an adaptively re-provisioned set of
// candidate configurations) through a time-varying utilization trace and
// accumulates the whole-scenario ledger — energy, the gap against an
// ideal energy-proportional system, tail-latency SLO compliance and
// configuration-switch churn.
//
// The paper's energy-proportionality analysis sweeps a *static* M/D/1
// utilization grid; real clusters track diurnal and bursty load, which
// is where proportionality wins or loses (Section II-B's "most servers
// operate at 30% utilization on an average" is a statement about a
// time-varying distribution). A Trace makes that distribution explicit:
// an ordered utilization time series, synthetic (internal/loadtrace
// shapes) or parsed from CSV/JSON, replayed through the exact same
// power, metrics and queueing kernels the static sweep uses — so every
// per-step quantity matches a direct point evaluation bit for bit.
package replay

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/loadtrace"
)

// Point is one sample of a utilization trace.
type Point struct {
	// T is the sample time in seconds since trace start. Points must
	// strictly ascend in T.
	T float64 `json:"t"`
	// Load is the offered load as a fraction of the reference
	// configuration's capacity, in [0, 1]. The load holds from this
	// point's T until the next point's.
	Load float64 `json:"load"`
}

// Trace is an ordered utilization time series. The i-th load holds for
// [T_i, T_{i+1}); the final point's dwell repeats the preceding
// interval, so a uniformly sampled trace of n points covers n equal
// steps.
type Trace struct {
	// Name labels the trace in summaries and telemetry.
	Name string `json:"name,omitempty"`
	// Points holds the samples, strictly ascending in T.
	Points []Point `json:"points"`
}

// Validate checks the trace invariants the engine and the serving layer
// rely on: at least two points, finite strictly-ascending timestamps and
// loads within [0, 1].
func (tr Trace) Validate() error {
	if len(tr.Points) < 2 {
		return fmt.Errorf("replay: trace needs at least 2 points, got %d", len(tr.Points))
	}
	for i, p := range tr.Points {
		if math.IsNaN(p.T) || math.IsInf(p.T, 0) {
			return fmt.Errorf("replay: point %d has non-finite timestamp %g", i, p.T)
		}
		if math.IsNaN(p.Load) || p.Load < 0 || p.Load > 1 {
			return fmt.Errorf("replay: point %d load %g outside [0, 1]", i, p.Load)
		}
		if i > 0 && p.T <= tr.Points[i-1].T {
			return fmt.Errorf("replay: non-monotonic timestamps: point %d at t=%g follows t=%g",
				i, p.T, tr.Points[i-1].T)
		}
	}
	return nil
}

// Steps returns the number of evaluation steps (one per point).
func (tr Trace) Steps() int { return len(tr.Points) }

// Duration returns the total covered time in seconds, including the
// final point's repeated dwell.
func (tr Trace) Duration() float64 {
	n := len(tr.Points)
	if n < 2 {
		return 0
	}
	last := tr.Points[n-1].T - tr.Points[n-2].T
	return tr.Points[n-1].T - tr.Points[0].T + last
}

// dwell returns the duration of step i.
func (tr Trace) dwell(i int) float64 {
	n := len(tr.Points)
	if i < n-1 {
		return tr.Points[i+1].T - tr.Points[i].T
	}
	return tr.Points[n-1].T - tr.Points[n-2].T
}

// MeanLoad returns the dwell-weighted mean load fraction.
func (tr Trace) MeanLoad() float64 {
	var sum, dur float64
	for i, p := range tr.Points {
		d := tr.dwell(i)
		sum += p.Load * d
		dur += d
	}
	if dur <= 0 {
		return 0
	}
	return sum / dur
}

// FromShape samples a loadtrace shape into a uniform trace: steps
// intervals of the given length, each sampled at its midpoint.
func FromShape(shape loadtrace.Shape, step float64, steps int) (Trace, error) {
	if step <= 0 {
		return Trace{}, errors.New("replay: step must be positive")
	}
	if steps < 2 {
		return Trace{}, fmt.Errorf("replay: need at least 2 steps, got %d", steps)
	}
	tr := Trace{Name: shape.Name(), Points: make([]Point, steps)}
	for i := range tr.Points {
		mid := (float64(i) + 0.5) * step
		tr.Points[i] = Point{T: float64(i) * step, Load: shape.At(mid)}
	}
	return tr, tr.Validate()
}
