// Package loadtrace models how datacenter load varies over time — the
// context behind the paper's motivation that "most servers operate at
// 30% utilization on an average" (Section II-B, citing Barroso et al.).
// It provides synthetic load shapes (diurnal sine, flash crowd, ramp,
// plateau steps); replay.FromShape samples one into a trace, and
// replay.Run prices that trace for a static configuration or an
// adaptively re-provisioned one.
package loadtrace

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Shape generates a load fraction (of the reference capacity) for each
// time step. Implementations must return values in [0, 1].
type Shape interface {
	// At returns the load fraction at time t (seconds into the trace).
	At(t float64) float64
	// Name labels the shape in reports.
	Name() string
}

// Diurnal is the classic day/night sine: load oscillates around Mean
// with amplitude Amplitude over a 24-hour period (or any period).
type Diurnal struct {
	// Mean is the average load fraction (the paper's ~0.3).
	Mean float64
	// Amplitude is the half swing; Mean±Amplitude must stay in [0,1].
	Amplitude float64
	// Period is the cycle length in seconds (86400 for a day).
	Period float64
	// PeakAt is the time of day (seconds) of maximum load.
	PeakAt float64
}

// At implements Shape.
func (d Diurnal) At(t float64) float64 {
	if d.Period <= 0 {
		return stats.Clamp(d.Mean, 0, 1)
	}
	phase := 2 * math.Pi * (t - d.PeakAt) / d.Period
	return stats.Clamp(d.Mean+d.Amplitude*math.Cos(phase), 0, 1)
}

// Name implements Shape.
func (d Diurnal) Name() string {
	return fmt.Sprintf("diurnal(mean=%.2f,amp=%.2f)", d.Mean, d.Amplitude)
}

// FlashCrowd is a baseline load with a sudden surge: load jumps to Peak
// at Start and decays exponentially with the given half-life.
type FlashCrowd struct {
	Base     float64
	Peak     float64
	Start    float64
	HalfLife float64
}

// At implements Shape.
func (f FlashCrowd) At(t float64) float64 {
	if t < f.Start || f.HalfLife <= 0 {
		return stats.Clamp(f.Base, 0, 1)
	}
	decay := math.Exp2(-(t - f.Start) / f.HalfLife)
	return stats.Clamp(f.Base+(f.Peak-f.Base)*decay, 0, 1)
}

// Name implements Shape.
func (f FlashCrowd) Name() string { return fmt.Sprintf("flashcrowd(%.2f->%.2f)", f.Base, f.Peak) }

// Ramp rises linearly from From to To over the given duration and holds
// To afterwards — a launch ramp-up or a controlled drain-down (From > To
// works symmetrically).
type Ramp struct {
	From, To float64
	// Duration is the ramp length in seconds; t past it holds To.
	Duration float64
}

// At implements Shape.
func (r Ramp) At(t float64) float64 {
	if r.Duration <= 0 || t >= r.Duration {
		return stats.Clamp(r.To, 0, 1)
	}
	if t <= 0 {
		return stats.Clamp(r.From, 0, 1)
	}
	return stats.Clamp(r.From+(r.To-r.From)*t/r.Duration, 0, 1)
}

// Name implements Shape.
func (r Ramp) Name() string { return fmt.Sprintf("ramp(%.2f->%.2f)", r.From, r.To) }

// Steps is a piecewise-constant load plan (levels repeat cyclically,
// each held for Dwell seconds) — batch windows, shift changes.
type Steps struct {
	Levels []float64
	Dwell  float64
}

// At implements Shape.
func (s Steps) At(t float64) float64 {
	if len(s.Levels) == 0 || s.Dwell <= 0 {
		return 0
	}
	i := int(t/s.Dwell) % len(s.Levels)
	return stats.Clamp(s.Levels[i], 0, 1)
}

// Name implements Shape.
func (s Steps) Name() string { return fmt.Sprintf("steps(%d levels)", len(s.Levels)) }
