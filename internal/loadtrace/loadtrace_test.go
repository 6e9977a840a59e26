package loadtrace

import (
	"math"
	"testing"
	"testing/quick"
)

// TestShapesWithinBounds: every shape stays in [0,1] across time.
func TestShapesWithinBounds(t *testing.T) {
	shapes := []Shape{
		Diurnal{Mean: 0.3, Amplitude: 0.25, Period: 86400, PeakAt: 14 * 3600},
		FlashCrowd{Base: 0.2, Peak: 0.95, Start: 3600, HalfLife: 1800},
		Steps{Levels: []float64{0.1, 0.5, 0.9, 0.3}, Dwell: 600},
	}
	f := func(tRaw uint32) bool {
		tm := float64(tRaw % 172800)
		for _, s := range shapes {
			v := s.At(tm)
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDiurnalPeakPhase(t *testing.T) {
	d := Diurnal{Mean: 0.4, Amplitude: 0.3, Period: 86400, PeakAt: 14 * 3600}
	if got := d.At(14 * 3600); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("peak load %g, want 0.7", got)
	}
	trough := d.At(2 * 3600)
	if math.Abs(trough-0.1) > 1e-9 {
		t.Errorf("trough load %g, want 0.1", trough)
	}
}

func TestFlashCrowdDecay(t *testing.T) {
	f := FlashCrowd{Base: 0.2, Peak: 1.0, Start: 100, HalfLife: 50}
	if got := f.At(50); got != 0.2 {
		t.Errorf("pre-surge load %g", got)
	}
	if got := f.At(100); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("surge onset %g, want 1.0", got)
	}
	if got := f.At(150); math.Abs(got-0.6) > 1e-9 { // one half-life: base + 0.8/2
		t.Errorf("after one half-life %g, want 0.6", got)
	}
}

func TestStepsCycle(t *testing.T) {
	s := Steps{Levels: []float64{0.1, 0.9}, Dwell: 10}
	if s.At(5) != 0.1 || s.At(15) != 0.9 || s.At(25) != 0.1 {
		t.Error("step cycle wrong")
	}
}
