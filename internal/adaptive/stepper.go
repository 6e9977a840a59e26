package adaptive

import (
	"errors"
	"fmt"

	"repro/internal/energyprop"
)

// Stepper carries the planner's switching state across successive load
// points. Plan answers "which configuration serves each load on a static
// grid" by stepping its grid through one; a trace replay instead feeds
// loads one at a time, in trace order, and the hysteresis comparison is
// against the configuration actually running from the previous step.
// The replay engine (internal/replay) drives one Stepper per run.
//
// A Stepper is not safe for concurrent use: steps are inherently
// ordered (each decision depends on the previous one).
type Stepper struct {
	candidates []*energyprop.Analysis
	policy     Policy
	ref        int
	refRate    float64
	prev       int
	switches   int
	suppressed int

	// Per-step scratch, reused across steps: each candidate's power at
	// the step's load, and the candidates under the utilization cap in
	// ascending (power, index) order.
	power []float64
	order []int
}

// NewStepper validates the candidates (same rules as Plan) and returns a
// stepper positioned before the first step: the first Step call never
// counts a switch.
func NewStepper(candidates []*energyprop.Analysis, policy Policy) (*Stepper, error) {
	if len(candidates) == 0 {
		return nil, errors.New("adaptive: no candidates")
	}
	ref := 0
	for i, c := range candidates {
		if c.Result.Time <= 0 {
			return nil, fmt.Errorf("adaptive: candidate %d has no service time", i)
		}
		if c.Result.Time < candidates[ref].Result.Time {
			ref = i
		}
	}
	return &Stepper{
		candidates: candidates,
		policy:     policy.withDefaults(),
		ref:        ref,
		refRate:    1 / float64(candidates[ref].Result.Time),
		prev:       -1,
		power:      make([]float64, len(candidates)),
		order:      make([]int, 0, len(candidates)),
	}, nil
}

// Reference returns the index of the reference (highest-throughput)
// candidate, whose capacity defines load fraction 1.
func (s *Stepper) Reference() int { return s.ref }

// Percentile returns the response-time percentile every Decision's
// Response is taken at: the policy's, defaulted.
func (s *Stepper) Percentile() float64 { return s.policy.Percentile }

// Switches returns how many configuration changes the steps so far made.
func (s *Stepper) Switches() int { return s.switches }

// Suppressed returns how many would-be switches hysteresis held back.
func (s *Stepper) Suppressed() int { return s.suppressed }

// Step decides the configuration for one load fraction (of the reference
// capacity, in [0, 1]) and advances the switching state: the cheapest
// candidate the policy admits, lowest index first among equal powers,
// unless hysteresis keeps the running one. Chosen is -1 when no
// candidate is feasible; the previous choice is then retained for the
// next step's hysteresis comparison.
//
// Utilization and power are curve lookups; only the response percentile
// costs a queueing solve. Step therefore orders the candidates under the
// utilization cap by power and solves them in that order only until one
// is feasible, and solves the running configuration only when
// hysteresis has to weigh it.
func (s *Stepper) Step(load float64) (Decision, error) {
	if !(load >= 0 && load <= 1) { // NaN fails too
		return Decision{}, fmt.Errorf("adaptive: load fraction %g outside [0,1]", load)
	}
	arrival := load * s.refRate
	s.order = s.order[:0]
	for i, c := range s.candidates {
		rho := arrival * float64(c.Result.Time)
		if rho > s.policy.MaxUtilization {
			continue
		}
		s.power[i] = c.PowerAt(rho)
		// Insertion sort: at most a few dozen candidates, no allocation,
		// and equal powers stay in index order.
		j := len(s.order)
		s.order = append(s.order, i)
		for ; j > 0 && s.power[s.order[j-1]] > s.power[i]; j-- {
			s.order[j] = s.order[j-1]
		}
		s.order[j] = i
	}

	best := -1
	var bestEval candEval
	for _, i := range s.order {
		if ev := evaluateCandidate(s.candidates[i], arrival, s.policy); ev.ok {
			best, bestEval = i, ev
			break
		}
	}
	// Hysteresis: stay with the running configuration unless the best
	// alternative beats it by more than the threshold. The running
	// configuration is solved only when it is under the cap and its
	// power would keep it, the one case its feasibility decides.
	if h := s.policy.Hysteresis; h > 0 && s.prev >= 0 && best >= 0 && best != s.prev &&
		arrival*float64(s.candidates[s.prev].Result.Time) <= s.policy.MaxUtilization &&
		bestEval.power > s.power[s.prev]*(1-h) {
		if cur := evaluateCandidate(s.candidates[s.prev], arrival, s.policy); cur.ok {
			best, bestEval = s.prev, cur
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
	return d, nil
}
