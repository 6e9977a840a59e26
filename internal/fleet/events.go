package fleet

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Action names a scenario intervention.
type Action string

// The timed-event actions of the scenario language.
const (
	ActionFail           Action = "fail"
	ActionRepair         Action = "repair"
	ActionThrottle       Action = "throttle"
	ActionUnthrottle     Action = "unthrottle"
	ActionPowerCap       Action = "power_cap"
	ActionUncap          Action = "uncap"
	ActionStraggle       Action = "straggle"
	ActionUnstraggle     Action = "unstraggle"
	ActionSetUtilization Action = "set_utilization"
)

// AllNodes is the Target.Node sentinel meaning "no specific node".
const AllNodes = -1

// Target selects the nodes a timed event applies to. Filters compose:
// the candidate set starts as all nodes, is narrowed by Type and Node,
// then truncated by Count or Fraction (lowest node indices first, so
// selection is deterministic).
type Target struct {
	// Type restricts to nodes of this node-type name; empty matches all.
	Type string
	// Node restricts to one node index; AllNodes (-1) disables.
	Node int
	// Count keeps the first Count matching nodes; 0 keeps all.
	Count int
	// Fraction keeps the first ceil(Fraction * matching) nodes; 0 keeps
	// all. Ignored when Count is set.
	Fraction float64
}

// EveryNode returns the target matching the whole fleet.
func EveryNode() Target { return Target{Node: AllNodes} }

// Validate checks the target.
func (t Target) Validate() error {
	if t.Node < AllNodes {
		return fmt.Errorf("fleet: target node index %d", t.Node)
	}
	if t.Count < 0 {
		return fmt.Errorf("fleet: negative target count %d", t.Count)
	}
	if t.Fraction < 0 || t.Fraction > 1 || math.IsNaN(t.Fraction) {
		return fmt.Errorf("fleet: target fraction %g outside [0, 1]", t.Fraction)
	}
	return nil
}

// selectNodes resolves the target against the fleet, in index order.
func (t Target) selectNodes(nodes []*node) []*node {
	out := make([]*node, 0, len(nodes))
	for _, n := range nodes {
		if t.Type != "" && n.group.Type.Name != t.Type {
			continue
		}
		if t.Node != AllNodes && n.index != t.Node {
			continue
		}
		out = append(out, n)
	}
	keep := len(out)
	switch {
	case t.Count > 0:
		keep = t.Count
	case t.Fraction > 0:
		keep = int(math.Ceil(t.Fraction * float64(len(out))))
	}
	if keep < len(out) {
		out = out[:keep]
	}
	return out
}

// TimedEvent is one scheduled scenario intervention. Exactly the
// parameter matching its action is consulted; Validate enforces it is
// present and sane.
type TimedEvent struct {
	// At is the virtual time the event fires.
	At units.Seconds
	// Action selects the intervention.
	Action Action
	// Target selects the affected nodes (ignored by set_utilization).
	Target Target
	// Factor is the throttle frequency multiplier, in (0, 1).
	Factor float64
	// Slowdown is the straggle factor, >= 1.
	Slowdown float64
	// Watts is the power_cap level per node; exclusive with Fraction.
	Watts units.Watts
	// Fraction is the power_cap level as a fraction of each targeted
	// node's nominal peak, in (0, 1]; exclusive with Watts.
	Fraction float64
	// Utilization is the new offered load for set_utilization.
	Utilization float64
	// For reverts the event after this long: fail→repair,
	// throttle→unthrottle, power_cap→uncap, straggle→unstraggle.
	// Zero means permanent (until a later event reverts it).
	For units.Seconds
}

// Validate checks the event against the run horizon.
func (e *TimedEvent) Validate(horizon units.Seconds) error {
	if e.At < 0 || !e.At.IsFinite() || e.At > horizon {
		return fmt.Errorf("fleet: event at %v outside [0, %v]", e.At, horizon)
	}
	if e.For < 0 || !e.For.IsFinite() {
		return fmt.Errorf("fleet: negative revert horizon %v", e.For)
	}
	if err := e.Target.Validate(); err != nil {
		return err
	}
	switch e.Action {
	case ActionFail, ActionRepair, ActionUnthrottle, ActionUncap, ActionUnstraggle:
		// No parameters.
	case ActionThrottle:
		if e.Factor <= 0 || e.Factor >= 1 {
			return fmt.Errorf("fleet: throttle factor %g outside (0, 1)", e.Factor)
		}
	case ActionStraggle:
		if e.Slowdown < 1 {
			return fmt.Errorf("fleet: straggle slowdown %g below 1", e.Slowdown)
		}
	case ActionPowerCap:
		if (e.Watts > 0) == (e.Fraction > 0) {
			return fmt.Errorf("fleet: power_cap needs exactly one of watts or fraction")
		}
		if e.Watts < 0 {
			return fmt.Errorf("fleet: negative power cap %v", e.Watts)
		}
		if e.Fraction < 0 || e.Fraction > 1 {
			return fmt.Errorf("fleet: power cap fraction %g outside (0, 1]", e.Fraction)
		}
	case ActionSetUtilization:
		if e.Utilization < 0 || math.IsNaN(e.Utilization) {
			return fmt.Errorf("fleet: set_utilization value %g", e.Utilization)
		}
		if e.For != 0 {
			return fmt.Errorf("fleet: set_utilization does not support 'for'")
		}
	default:
		return fmt.Errorf("fleet: unknown action %q", e.Action)
	}
	return nil
}

// revertAction maps an action to its inverse for For-scoped events.
func revertAction(a Action) (Action, bool) {
	switch a {
	case ActionFail:
		return ActionRepair, true
	case ActionThrottle:
		return ActionUnthrottle, true
	case ActionPowerCap:
		return ActionUncap, true
	case ActionStraggle:
		return ActionUnstraggle, true
	}
	return "", false
}

// applyTimedEvent executes intervention i (ev is Spec.Events[i], or its
// revert): one accounting advance and one rebalance for the whole
// batch, however many nodes it touches. A For-scoped event books its
// own revert, which resolves the same target again when it fires.
func (s *Simulator) applyTimedEvent(ev TimedEvent, i int) {
	now := s.now
	if ev.Action == ActionSetUtilization {
		s.advanceAll(now)
		s.utilization = ev.Utilization
		s.rebalance(now)
		s.log = append(s.log, ChaosRecord{Time: now, Node: AllNodes, Kind: string(ev.Action)})
		return
	}

	targets := ev.Target.selectNodes(s.nodes)
	if len(targets) == 0 {
		return
	}
	s.advanceAll(now)
	for _, n := range targets {
		v := 0.0
		switch ev.Action {
		case ActionThrottle:
			v = ev.Factor
		case ActionUnthrottle, ActionUnstraggle:
			v = 1
		case ActionPowerCap:
			v = float64(ev.Watts)
			if ev.Fraction > 0 {
				v = ev.Fraction * float64(n.group.Type.NominalPeak)
			}
		case ActionStraggle:
			v = ev.Slowdown
		}
		s.mutate(n, ev.Action, v)
		n.recalc()
	}
	s.rebalance(now)

	if _, ok := revertAction(ev.Action); ok && ev.For > 0 {
		s.after(float64(ev.For), 0, evRevert, i)
	}
}
