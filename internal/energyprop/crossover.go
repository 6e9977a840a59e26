package energyprop

// SublinearCrossover returns the utilization u* at which a linear
// configuration curve crosses the reference's ideal proportionality
// line and becomes sub-linear: for u > u* the configuration consumes
// less than u times the reference peak.
//
// For the model's linear curves this is closed form. The configuration
// draws P(u) = idle + u*(peak-idle); the reference ideal is u*P_ref.
// Equality gives
//
//	u* = idle / (P_ref - (peak - idle))
//
// ok is false when the configuration is never sub-linear on (0, 1]
// (its slope exceeds the reference peak, or the crossover falls beyond
// full utilization).
func (r Reference) SublinearCrossover(c Curve) (u float64, ok bool) {
	idle, peak := c.Idle(), c.Peak()
	den := r.PeakPower - (peak - idle)
	if den <= 0 {
		return 0, false // slope too steep: never crosses below ideal
	}
	u = idle / den
	if u >= 1 {
		return 0, false
	}
	if u < 0 {
		u = 0
	}
	return u, true
}

// CrossoverNumeric finds the sub-linear crossover by bisection on the
// (possibly non-linear) sampled curve. It returns ok=false when the
// curve never dips below the reference ideal on (lo, 1].
func (r Reference) CrossoverNumeric(c Curve, tol float64) (float64, bool) {
	if tol <= 0 {
		tol = 1e-9
	}
	gap := func(u float64) float64 { return c.At(u) - r.PeakPower*u }
	const lo = 1e-6
	if gap(lo) <= 0 {
		return lo, true // sub-linear from the start (zero idle power)
	}
	if gap(1) > 0 {
		return 0, false
	}
	a, b := lo, 1.0
	for b-a > tol {
		mid := (a + b) / 2
		if gap(mid) > 0 {
			a = mid
		} else {
			b = mid
		}
	}
	return (a + b) / 2, true
}
