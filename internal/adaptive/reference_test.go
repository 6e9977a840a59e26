package adaptive

import (
	"math"
	"testing"

	"repro/internal/energyprop"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// refStepper is the eager decision the lazy Stepper must reproduce bit
// for bit: every candidate is scored at every step, a strict-< scan in
// index order keeps the cheapest admitted one, and hysteresis weighs
// the running configuration's own score.
type refStepper struct {
	candidates []*energyprop.Analysis
	policy     Policy
	refRate    float64
	prev       int
	switches   int
	suppressed int
}

func newRefStepper(candidates []*energyprop.Analysis, policy Policy) *refStepper {
	ref := 0
	for i, c := range candidates {
		if c.Result.Time < candidates[ref].Result.Time {
			ref = i
		}
	}
	return &refStepper{
		candidates: candidates,
		policy:     policy.withDefaults(),
		refRate:    1 / float64(candidates[ref].Result.Time),
		prev:       -1,
	}
}

func (s *refStepper) step(load float64) Decision {
	arrival := load * s.refRate
	best, prevEval := -1, candEval{}
	var bestEval candEval
	for i, c := range s.candidates {
		ev := evaluateCandidate(c, arrival, s.policy)
		if i == s.prev {
			prevEval = ev
		}
		if !ev.ok {
			continue
		}
		if best == -1 || ev.power < bestEval.power {
			best, bestEval = i, ev
		}
	}
	if s.policy.Hysteresis > 0 && s.prev >= 0 && best >= 0 && best != s.prev && prevEval.ok {
		if bestEval.power > prevEval.power*(1-s.policy.Hysteresis) {
			best, bestEval = s.prev, prevEval
			s.suppressed++
		}
	}
	d := Decision{LoadFrac: load, Arrival: arrival, Chosen: best}
	if best >= 0 {
		d.Utilization = bestEval.rho
		d.Power = bestEval.power
		d.Response = bestEval.resp
		if s.prev >= 0 && s.prev != best {
			s.switches++
		}
		s.prev = best
	}
	return d
}

// sameDecision compares two decisions bit for bit.
func sameDecision(a, b Decision) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Chosen == b.Chosen && eq(a.LoadFrac, b.LoadFrac) && eq(a.Arrival, b.Arrival) &&
		eq(a.Utilization, b.Utilization) && eq(a.Power, b.Power) && eq(a.Response, b.Response)
}

// checkAgainstReference steps the loads through a Stepper and the eager
// reference side by side and fails on the first difference.
func checkAgainstReference(t *testing.T, cands []*energyprop.Analysis, policy Policy, loads []float64) {
	t.Helper()
	st, err := NewStepper(cands, policy)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefStepper(cands, policy)
	for k, load := range loads {
		got, err := st.Step(load)
		if math.IsNaN(load) || math.IsInf(load, 0) {
			// Rejected, and the stepper's state left as it was: the
			// reference never sees the load, and later steps must
			// still match it.
			if err == nil {
				t.Fatalf("step %d: load %g accepted: %+v", k, load, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d (load %g): %v", k, load, err)
		}
		want := ref.step(load)
		if !sameDecision(got, want) {
			t.Fatalf("step %d (load %g, policy %+v): lazy %+v, reference %+v", k, load, policy, got, want)
		}
		if st.Switches() != ref.switches || st.Suppressed() != ref.suppressed {
			t.Fatalf("step %d: switches/suppressed %d/%d, reference %d/%d",
				k, st.Switches(), st.Suppressed(), ref.switches, ref.suppressed)
		}
	}
}

// TestStepperMatchesReferenceOnPaperMixes: the paper-model candidate
// sets under SLO and hysteresis policies, over an up-down load sweep
// that crosses every candidate's utilization cap.
func TestStepperMatchesReferenceOnPaperMixes(t *testing.T) {
	up := stats.Linspace(0, 1, 41)
	loads := append(append([]float64(nil), up...), stats.Linspace(1, 0, 41)...)
	loads = append(loads, 0.3, 0.5, 0.3, 0.5, 0.31, 0.9, 0.05)
	for _, set := range []struct {
		wl    string
		mixes [][2]int
	}{
		{workload.NameEP, ladderMixes},
		{workload.NameEP, [][2]int{{32, 12}, {32, 0}, {8, 12}}},
		{workload.NameX264, ladderMixes},
	} {
		cands := candidates(t, set.wl, set.mixes)
		for _, policy := range []Policy{
			{},
			{SLO: 0.5},
			{SLO: 4, Percentile: 99},
			{Hysteresis: 0.05},
			{SLO: 0.5, Hysteresis: 0.2, MaxUtilization: 0.8},
			{SLO: 2, Percentile: 50, Hysteresis: 0.99},
		} {
			checkAgainstReference(t, cands, policy, loads)
		}
	}
}

// fuzzCandidates decodes spec into 1-8 synthetic candidates, four bytes
// each: a service time from a small ladder (equal times are common), and
// idle, peak and mid-curve power levels on a 10 W grid, so equal powers,
// flat curves and crossing curves all occur.
func fuzzCandidates(spec []byte) []*energyprop.Analysis {
	times := []float64{0.25, 0.5, 1, 1, 1.5, 2, 3, 4}
	var out []*energyprop.Analysis
	for len(spec) >= 4 && len(out) < 8 {
		b := spec[:4]
		spec = spec[4:]
		idle := 10 * float64(b[1]%8)
		peak := idle + 10*float64(b[2]%8)
		mid := idle + (peak-idle)*float64(b[3]%5)/4
		curve, err := energyprop.NewCurve([]float64{0, 0.5, 1}, []float64{idle, mid, peak})
		if err != nil {
			panic(err)
		}
		out = append(out, &energyprop.Analysis{
			Result: model.Result{
				Time:      units.Seconds(times[b[0]%8]),
				IdlePower: units.Watts(idle),
				BusyPower: units.Watts(peak),
			},
			CurveRes: curve,
		})
	}
	return out
}

// FuzzStepper differentially checks the lazy Stepper against the eager
// reference: candidates (service times and power curves), the load
// sequence (0 and 1 included, optionally with one NaN or infinite load),
// the SLO on or off with its percentile, the utilization cap and
// hysteresis are all fuzzed. Every Decision must be bitwise equal and so
// must the switch and suppression counts; a non-finite load must be
// rejected and leave the stepper's state untouched.
func FuzzStepper(f *testing.F) {
	f.Add([]byte{2, 1, 5, 2, 5, 0, 3, 4, 3, 4, 4, 0}, []byte{0, 40, 90, 160, 255, 200, 60, 0}, uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{2, 1, 5, 2, 5, 0, 3, 4, 3, 4, 4, 0}, []byte{10, 80, 10, 80, 10, 250}, uint8(3), uint8(2), uint8(4), uint8(1), uint8(0))
	f.Add([]byte{3, 2, 2, 0, 3, 2, 2, 0, 4, 2, 2, 0, 0, 7, 0, 0}, []byte{0, 255, 128, 128, 1, 254}, uint8(0), uint8(0), uint8(2), uint8(0), uint8(0))
	f.Add([]byte{0, 0, 7, 4, 7, 7, 0, 0, 1, 3, 3, 2}, []byte{5, 100, 200, 240, 180, 90, 30}, uint8(9), uint8(4), uint8(5), uint8(3), uint8(0))
	f.Add([]byte{6, 1, 1, 1}, []byte{0, 1, 2, 255}, uint8(1), uint8(1), uint8(1), uint8(2), uint8(0))
	// A NaN, a +Inf and a -Inf load mid-sequence (bad%4 picks the value,
	// bad/4 the step).
	f.Add([]byte{2, 1, 5, 2, 5, 0, 3, 4, 3, 4, 4, 0}, []byte{10, 80, 10, 80, 10, 250}, uint8(1), uint8(2), uint8(4), uint8(1), uint8(1+4*2))
	f.Add([]byte{2, 1, 5, 2, 5, 0, 3, 4, 3, 4, 4, 0}, []byte{0, 40, 90, 160, 255, 200, 60, 0}, uint8(1), uint8(0), uint8(0), uint8(0), uint8(2+4*3))
	f.Add([]byte{0, 0, 7, 4, 7, 7, 0, 0, 1, 3, 3, 2}, []byte{5, 100, 200, 240, 180, 90, 30}, uint8(9), uint8(4), uint8(5), uint8(3), uint8(3+4*1))
	// A 20 W fast candidate and a 10 W slow one under hysteresis 0.5:
	// dropping to low load makes the switch save exactly the margin,
	// which is not enough to switch.
	f.Add([]byte{0, 2, 0, 0, 2, 1, 0, 0}, []byte{230, 25, 230, 25}, uint8(0), uint8(0), uint8(5), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, spec, loadBytes []byte, slo, pct, hyst, capCode, bad uint8) {
		cands := fuzzCandidates(spec)
		if len(cands) == 0 || len(loadBytes) == 0 {
			return
		}
		if len(loadBytes) > 64 {
			loadBytes = loadBytes[:64]
		}
		loads := make([]float64, len(loadBytes))
		for i, b := range loadBytes {
			loads[i] = float64(b) / 255
		}
		if k := bad % 4; k != 0 {
			loads[int(bad/4)%len(loads)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[k-1]
		}
		policy := Policy{
			Percentile:     []float64{0, 50, 90, 95, 99, 99.9}[pct%6],
			Hysteresis:     []float64{0, 0, 0.01, 0.05, 0.2, 0.5, 0.99}[hyst%7],
			MaxUtilization: []float64{0, 0.5, 0.8, 0.99}[capCode%4],
		}
		if slo%4 != 0 {
			// An SLO between one and ~10 of the fastest service times,
			// so it splits the candidates.
			policy.SLO = 0.25 * (1 + float64(slo/4)*0.6)
		}
		checkAgainstReference(t, cands, policy, loads)
	})
}
