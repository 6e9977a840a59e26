// Package energyprop implements the paper's primary contribution: the
// energy-proportionality extensions of Section II-B. It models the power
// of a server or cluster as a function of utilization via the M/D/1
// arrival process, and computes the proportionality metrics of Table 3 —
// Dynamic Power Range (DPR), Idle-to-Peak Ratio (IPR), Energy
// Proportionality Metric (EPM), Linear Deviation Ratio (LDR) and the
// per-utilization Proportionality Gap (PG) — together with the
// Performance-to-Power Ratio (PPR) across utilization levels.
package energyprop

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/units"
)

// Curve is a power-versus-utilization curve P(u) for u in [0, 1].
// Utilization follows the paper's M/D/1 construction: u is the fraction
// of the observation window the system spends executing jobs.
type Curve struct {
	// U holds utilization fractions, strictly ascending, starting at 0
	// and ending at 1.
	U []float64
	// P holds the corresponding average power draws in watts.
	P []float64
}

// NewCurve validates and wraps sampled (u, P) points.
func NewCurve(u, p []float64) (Curve, error) {
	if len(u) != len(p) {
		return Curve{}, errors.New("energyprop: curve sample lengths differ")
	}
	if len(u) < 2 {
		return Curve{}, errors.New("energyprop: curve needs at least two samples")
	}
	if u[0] != 0 || u[len(u)-1] != 1 {
		return Curve{}, fmt.Errorf("energyprop: curve must span [0,1], got [%g,%g]", u[0], u[len(u)-1])
	}
	for i := 1; i < len(u); i++ {
		if u[i] <= u[i-1] {
			return Curve{}, errors.New("energyprop: utilization samples not strictly ascending")
		}
	}
	for _, v := range p {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return Curve{}, fmt.Errorf("energyprop: invalid power sample %g", v)
		}
	}
	return Curve{U: u, P: p}, nil
}

// Linear returns the paper's model curve: the straight line from
// (0, idle) to (1, peak), sampled at n+1 points. Under the M/D/1
// utilization model with a fixed configuration, average power over the
// observation window is exactly this line (Section II-B).
func Linear(idle, peak units.Watts, n int) Curve {
	if n < 1 {
		n = 1
	}
	u := stats.Linspace(0, 1, n+1)
	p := make([]float64, len(u))
	for i, x := range u {
		p[i] = float64(idle) + x*(float64(peak)-float64(idle))
	}
	return Curve{U: u, P: p}
}

// FromModel builds the utilization curve of a configuration running a
// workload: idle power at u=0 rising linearly to the busy power E_P/T_P
// at u=1, per the M/D/1 window accounting E(u) = u*T*P_busy + (1-u)*T*P_idle.
func FromModel(res model.Result, n int) Curve {
	return Linear(res.IdlePower, res.BusyPower, n)
}

// Idle returns P(0).
func (c Curve) Idle() float64 { return c.P[0] }

// Peak returns P(1).
func (c Curve) Peak() float64 { return c.P[len(c.P)-1] }

// At returns P(u) by linear interpolation. u outside [0,1] is clamped.
func (c Curve) At(u float64) float64 {
	if u <= c.U[0] {
		return c.P[0]
	}
	if u >= c.U[len(c.U)-1] {
		return c.P[len(c.P)-1]
	}
	// Binary search for the bracketing panel.
	lo, hi := 0, len(c.U)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if c.U[mid] <= u {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := (u - c.U[lo]) / (c.U[hi] - c.U[lo])
	return c.P[lo]*(1-frac) + c.P[hi]*frac
}

// NormalizedAt returns P(u)/P_peak, the percentage-of-peak quantity the
// paper's Figures 5, 7, 9 and 10 plot (as a fraction, not percent).
func (c Curve) NormalizedAt(u float64) float64 {
	peak := c.Peak()
	if peak <= 0 {
		return 0
	}
	return c.At(u) / peak
}
