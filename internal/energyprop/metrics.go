package energyprop

import (
	"math"

	"repro/internal/stats"
)

// Metrics bundles the cumulative energy-proportionality metrics of
// Table 3 for one power curve.
type Metrics struct {
	// DPR is the dynamic power range in percent: 100 - P_idle[% of peak].
	DPR float64
	// IPR is the idle-to-peak power ratio P_idle/P_peak.
	IPR float64
	// EPM is the energy proportionality metric of Ryckbosch et al.:
	// 1 - (int P_server du - int P_ideal du) / int P_ideal du, where
	// P_ideal(u) = P_peak * u. One means perfectly proportional, zero
	// means constant power.
	EPM float64
	// LDR is the linear deviation ratio. The paper reports LDR equal to
	// EPM for every workload ("the EPM and LDR values are equal to
	// 1 - IPR", Section III-B), which holds when LDR is computed as the
	// deviation of the curve's fitted linear slope from the ideal slope:
	// LDR = slope(P)/P_peak for a least-squares line fit. That is the
	// definition used here; ChordLDR provides the alternative
	// literal-deviation reading of Varsamopoulos et al.
	LDR float64
	// ChordLDR is the signed maximum relative deviation of the curve
	// from its own idle-to-peak chord (the Table 3 formula read
	// literally): zero for a linear server, negative for sub-linear,
	// positive for super-linear.
	ChordLDR float64
}

// ComputeMetrics evaluates the cumulative metrics for the curve.
func ComputeMetrics(c Curve) Metrics {
	peak := c.Peak()
	idle := c.Idle()
	var m Metrics
	if peak <= 0 {
		return m
	}
	m.IPR = idle / peak
	m.DPR = 100 * (1 - m.IPR)

	// EPM: integrate the actual and ideal curves over u in [0,1].
	actual, err := stats.Trapezoid(c.U, c.P)
	if err != nil {
		return m
	}
	ideal := peak / 2
	m.EPM = 1 - (actual-ideal)/ideal

	// LDR: least-squares slope of the power curve over the ideal slope.
	m.LDR = fitSlope(c.U, c.P) / peak

	// ChordLDR: max |deviation| (signed) from the idle-to-peak chord.
	m.ChordLDR = chordLDR(c)
	return m
}

// fitSlope returns the least-squares slope of y over x.
func fitSlope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy stats.KahanSum
	for i := range x {
		sx.Add(x[i])
		sy.Add(y[i])
		sxx.Add(x[i] * x[i])
		sxy.Add(x[i] * y[i])
	}
	den := n*sxx.Sum() - sx.Sum()*sx.Sum()
	if den == 0 {
		return 0
	}
	return (n*sxy.Sum() - sx.Sum()*sy.Sum()) / den
}

// chordLDR evaluates the literal Table 3 formula: the deviation from the
// line ((P_peak - P_idle) u + P_idle), normalized by that line, signed,
// with the maximum taken over |.|.
func chordLDR(c Curve) float64 {
	idle, peak := c.Idle(), c.Peak()
	best := 0.0
	for i, u := range c.U {
		line := (peak-idle)*u + idle
		if line <= 0 {
			continue
		}
		dev := (c.P[i] - line) / line
		if math.Abs(dev) > math.Abs(best) {
			best = dev
		}
	}
	return best
}

// PG returns the proportionality gap at utilization u (Table 3):
// (P(u) - P_ideal(u)) / P_ideal(u) with P_ideal(u) = P_peak*u. Lower is
// more proportional; the gap diverges as u approaches zero for any
// system with nonzero idle power, which is why the paper plots it only
// for u >= 10%.
func PG(c Curve, u float64) float64 {
	peak := c.Peak()
	ideal := peak * u
	if ideal <= 0 {
		return math.Inf(1)
	}
	return (c.At(u) - ideal) / ideal
}

// Reference normalizes a configuration's power curve against a
// *reference* peak power — the mechanism behind Figures 9 and 10, where
// Pareto-frontier configurations are drawn against the ideal
// proportionality line of the maximum configuration (32 A9 + 12 K10).
// Configurations that drop brawny nodes consume less absolute power and
// can fall below that shared ideal line: sub-linear energy
// proportionality, the paper's "scaling the energy proportionality
// wall".
type Reference struct {
	// PeakPower is the reference peak (watts) all curves normalize to.
	PeakPower float64
}

// NormalizedAt returns P_cfg(u)/P_ref,peak.
func (r Reference) NormalizedAt(c Curve, u float64) float64 {
	if r.PeakPower <= 0 {
		return 0
	}
	return c.At(u) / r.PeakPower
}

// PG returns the proportionality gap of the curve against the reference
// ideal line u * P_ref,peak.
func (r Reference) PG(c Curve, u float64) float64 {
	ideal := r.PeakPower * u
	if ideal <= 0 {
		return math.Inf(1)
	}
	return (c.At(u) - ideal) / ideal
}

// SublinearAt reports whether the configuration consumes less power at
// utilization u than the reference's ideal proportional system.
func (r Reference) SublinearAt(c Curve, u float64) bool {
	return r.PG(c, u) < 0
}

// SublinearRange returns the utilization interval [lo, hi] (within the
// probe grid) over which the curve is sub-linear against the reference,
// or ok=false if it never is.
func (r Reference) SublinearRange(c Curve, grid []float64) (lo, hi float64, ok bool) {
	for _, u := range grid {
		if u <= 0 {
			continue
		}
		if r.SublinearAt(c, u) {
			if !ok {
				lo, ok = u, true
			}
			hi = u
		}
	}
	return lo, hi, ok
}
