package fleet

import (
	"fmt"

	"repro/internal/units"
)

// Chaos configures the background fault-injection processes. Each
// enabled process runs independently per node, driven by that node's
// own PRNG stream, so the chaos a given node experiences depends only
// on (Spec.Seed, node index) — never on fleet size, event interleaving
// or other nodes' draws.
type Chaos struct {
	// Enabled gates the whole layer; when false the rest is ignored.
	Enabled bool

	// MTBF is the per-node mean time between failures (exponential
	// inter-failure times). Zero disables failures. A failed node powers
	// off — zero draw, zero work — and its load shifts to the survivors.
	MTBF units.Seconds
	// MTTR is the mean repair time (exponential); required with MTBF.
	MTTR units.Seconds

	// ThrottleEvery is the per-node mean time between DVFS throttling
	// onsets (thermal events). Zero disables throttling.
	ThrottleEvery units.Seconds
	// ThrottleFor is the fixed duration of each throttle episode.
	ThrottleFor units.Seconds
	// ThrottleFactor multiplies the core frequency during an episode,
	// in (0, 1).
	ThrottleFactor float64

	// CapEvery is the per-node mean time between power-cap impositions
	// (facility-level capping reaching the node). Zero disables caps.
	CapEvery units.Seconds
	// CapFor is the fixed duration of each cap episode.
	CapFor units.Seconds
	// CapFraction caps the node at this fraction of its nominal peak
	// power, in (0, 1].
	CapFraction float64

	// StragglerProb is the probability that a node is a straggler for
	// the whole run (failing fans, degraded parts, noisy neighbours).
	StragglerProb float64
	// StragglerSlowdown is the straggler's CPU slowdown factor, >= 1.
	StragglerSlowdown float64
}

// Validate checks the chaos configuration.
func (c Chaos) Validate() error {
	if !c.Enabled {
		return nil
	}
	// The mean times set exponential rates: NaN or infinite ones have
	// none. An infinite episode length lasts past any horizon.
	for _, d := range []units.Seconds{c.MTBF, c.MTTR, c.ThrottleEvery, c.CapEvery} {
		if d < 0 || !d.IsFinite() {
			return fmt.Errorf("fleet: chaos mean times must be finite and non-negative")
		}
	}
	if !(c.ThrottleFor >= 0) || !(c.CapFor >= 0) {
		return fmt.Errorf("fleet: chaos durations must be non-negative")
	}
	if c.MTBF > 0 && c.MTTR <= 0 {
		return fmt.Errorf("fleet: chaos failures need a positive mttr")
	}
	if c.ThrottleEvery > 0 {
		if c.ThrottleFor <= 0 {
			return fmt.Errorf("fleet: chaos throttling needs a positive duration")
		}
		if c.ThrottleFactor <= 0 || c.ThrottleFactor >= 1 {
			return fmt.Errorf("fleet: chaos throttle factor %g outside (0, 1)", c.ThrottleFactor)
		}
	}
	if c.CapEvery > 0 {
		if c.CapFor <= 0 {
			return fmt.Errorf("fleet: chaos power caps need a positive duration")
		}
		if c.CapFraction <= 0 || c.CapFraction > 1 {
			return fmt.Errorf("fleet: chaos cap fraction %g outside (0, 1]", c.CapFraction)
		}
	}
	if c.StragglerProb < 0 || c.StragglerProb > 1 {
		return fmt.Errorf("fleet: straggler probability %g outside [0, 1]", c.StragglerProb)
	}
	if c.StragglerProb > 0 && c.StragglerSlowdown < 1 {
		return fmt.Errorf("fleet: straggler slowdown %g below 1", c.StragglerSlowdown)
	}
	return nil
}

// ChaosRecord is one injected chaos or scenario event, for the run log.
type ChaosRecord struct {
	Time float64 `json:"time"`
	Node int     `json:"node"` // -1 for fleet-level events
	Kind string  `json:"kind"`
}

// armChaos draws node n's straggler fate and books the first episode
// of each enabled background process on its engine. Each episode books
// its successor when it fires (Simulator.fire).
func (s *Simulator) armChaos(n *node) {
	c := s.spec.Chaos
	if !c.Enabled {
		return
	}

	// Stragglers are drawn at t=0 and last the whole run. The draw is
	// consumed even for healthy nodes, keeping each stream's offsets
	// fixed per process.
	if c.StragglerProb > 0 {
		if n.rng.Float64() < c.StragglerProb {
			n.stragglerFactor = c.StragglerSlowdown
			n.straggler = true
			n.recalc()
			s.counters.stragglers++
			s.log = append(s.log, ChaosRecord{Time: 0, Node: n.index, Kind: "straggler"})
		}
	}

	engine := n.index + 1
	if c.MTBF > 0 {
		s.after(n.rng.ExpFloat64(1/float64(c.MTBF)), engine, evFail, 0)
	}
	if c.ThrottleEvery > 0 {
		s.after(n.rng.ExpFloat64(1/float64(c.ThrottleEvery)), engine, evThrottle, 0)
	}
	if c.CapEvery > 0 {
		s.after(n.rng.ExpFloat64(1/float64(c.CapEvery)), engine, evCap, 0)
	}
}

// applyChaos runs one background chaos episode on n: when it changes
// n's state, advance all lazy accounting to now, mutate, rederive,
// rebalance.
func (s *Simulator) applyChaos(n *node, act Action, v float64) {
	if n.inState(act, v) {
		return
	}
	s.advanceAll(s.now)
	s.mutate(n, act, v)
	n.recalc()
	s.rebalance(s.now)
}

// inState reports whether n already is where act with value v would
// put it: v is the throttle factor, the cap in watts or the straggle
// slowdown, and is ignored by fail and repair.
func (n *node) inState(act Action, v float64) bool {
	switch act {
	case ActionFail:
		return n.failed
	case ActionRepair:
		return !n.failed
	case ActionThrottle, ActionUnthrottle:
		return n.throttleFactor == v
	case ActionPowerCap, ActionUncap:
		return n.capWatts == v
	default: // straggle, unstraggle
		return n.stragglerFactor == v
	}
}

// mutate is the single write path for a node's chaos state, shared by
// the background chaos processes and the scenario's timed events: it
// applies act with value v (see inState), counts and logs it, and does
// nothing when n is already in that state. The caller advances the
// accounting before and rederives and rebalances after.
func (s *Simulator) mutate(n *node, act Action, v float64) {
	if n.inState(act, v) {
		return
	}
	kind := string(act)
	switch act {
	case ActionFail:
		n.failed = true
		n.failures++
		s.counters.failures++
	case ActionRepair:
		n.failed = false
		n.repairs++
		s.counters.repairs++
	case ActionThrottle, ActionUnthrottle:
		n.throttleFactor = v
		if act == ActionThrottle {
			n.throttles++
			s.counters.throttles++
		}
	case ActionPowerCap, ActionUncap:
		n.capWatts = v
		if act == ActionPowerCap {
			n.caps++
			s.counters.caps++
		}
	case ActionStraggle:
		n.stragglerFactor = v
		if !n.straggler {
			n.straggler = true
			s.counters.stragglers++
		}
		kind = "straggler"
	case ActionUnstraggle:
		n.stragglerFactor = v
		n.straggler = false
		kind = "unstraggler"
	}
	s.log = append(s.log, ChaosRecord{Time: s.now, Node: n.index, Kind: kind})
}
