package stats

import (
	"errors"
	"math"
)

// KahanSum accumulates floating point values with compensated summation,
// keeping the error independent of the number of terms. The proportionality
// metrics integrate power curves over fine utilization grids, where naive
// summation would lose precision.
type KahanSum struct {
	sum, c float64
}

// Add accumulates v.
func (k *KahanSum) Add(v float64) {
	y := v - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum }

// Trapezoid integrates the sampled function (xs[i], ys[i]) with the
// trapezoidal rule. xs must be strictly increasing and len(xs) == len(ys)
// with at least two points.
func Trapezoid(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: Trapezoid slice lengths differ")
	}
	if len(xs) < 2 {
		return 0, errors.New("stats: Trapezoid needs at least two points")
	}
	var k KahanSum
	for i := 1; i < len(xs); i++ {
		dx := xs[i] - xs[i-1]
		if dx <= 0 {
			return 0, errors.New("stats: Trapezoid xs not strictly increasing")
		}
		k.Add(dx * (ys[i] + ys[i-1]) / 2)
	}
	return k.Sum(), nil
}

// IntegrateFunc integrates f over [a, b] with n trapezoid panels.
func IntegrateFunc(f func(float64) float64, a, b float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	h := (b - a) / float64(n)
	var k KahanSum
	k.Add(f(a) / 2)
	for i := 1; i < n; i++ {
		k.Add(f(a + float64(i)*h))
	}
	k.Add(f(b) / 2)
	return k.Sum() * h
}

// PercentileSorted returns the p-th percentile (p in [0,100]) of data
// already in ascending order, using linear interpolation between closest
// ranks (the same "type 7" estimator as numpy's default).
func PercentileSorted(sorted []float64, p float64) (float64, error) {
	if len(sorted) == 0 {
		return 0, errors.New("stats: Percentile of empty data")
	}
	if p < 0 || p > 100 || math.IsNaN(p) {
		return 0, errors.New("stats: Percentile p out of range")
	}
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Linspace returns n evenly spaced samples over [a, b] inclusive.
// n must be at least 2.
func Linspace(a, b float64, n int) []float64 {
	if n < 2 {
		return []float64{a}
	}
	out := make([]float64, n)
	step := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*step
	}
	out[n-1] = b // avoid accumulation error on the final point
	return out
}

// RelErr returns the relative error |got-want|/|want|, or the absolute
// error when want is zero.
func RelErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
