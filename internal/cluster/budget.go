package cluster

import (
	"fmt"

	"repro/internal/hardware"
	"repro/internal/units"
)

// BudgetSpec describes the fixed peak-power envelope of Section III-C:
// cluster mixes are compared fairly by holding their rated peak power
// (nodes plus wimpy-side switches) under a budget.
type BudgetSpec struct {
	// Budget is the peak power envelope (1 kW in the paper).
	Budget units.Watts
	// Wimpy and Brawny are the two node types being mixed.
	Wimpy, Brawny *hardware.NodeType
	// Switch models the aggregation switch attached to wimpy nodes.
	Switch hardware.SwitchModel
	// BrawnyStep is the granularity at which brawny nodes are traded for
	// wimpy ones when generating the substitution ladder. The paper uses
	// 4 (producing 0, 4, 8, 12, 16 K10 nodes).
	BrawnyStep int
}

// DefaultBudget returns the paper's 1 kW A9/K10 setup.
func DefaultBudget(catalog *hardware.Catalog) (BudgetSpec, error) {
	wimpy, err := catalog.Lookup("A9")
	if err != nil {
		return BudgetSpec{}, err
	}
	brawny, err := catalog.Lookup("K10")
	if err != nil {
		return BudgetSpec{}, err
	}
	return BudgetSpec{
		Budget:     1000,
		Wimpy:      wimpy,
		Brawny:     brawny,
		Switch:     hardware.DefaultSwitch(),
		BrawnyStep: 4,
	}, nil
}

// PeakWithSwitches returns the budget-accounted peak power of a wimpy/
// brawny mix: rated node peaks plus switch power for the wimpy side.
func (b BudgetSpec) PeakWithSwitches(nWimpy, nBrawny int) units.Watts {
	return units.Watts(float64(b.Wimpy.NominalPeak)*float64(nWimpy)+
		float64(b.Brawny.NominalPeak)*float64(nBrawny)) +
		b.Switch.Power(nWimpy)
}

// Fits reports whether the mix stays within the budget.
func (b BudgetSpec) Fits(nWimpy, nBrawny int) bool {
	return b.PeakWithSwitches(nWimpy, nBrawny) <= b.Budget
}

// SubstitutionRatio returns how many wimpy nodes replace one brawny node
// (8 for the paper's A9/K10 with a 20 W-per-8-nodes switch).
func (b BudgetSpec) SubstitutionRatio() int {
	return b.Switch.SubstitutionRatio(b.Wimpy, b.Brawny)
}

// Mix is one point on the substitution ladder.
type Mix struct {
	Wimpy, Brawny int
	Config        Config
}

// Ladder generates the substitution ladder of Section III-C: starting
// from the all-brawny cluster that fills the budget, trade BrawnyStep
// brawny nodes for BrawnyStep*ratio wimpy nodes until no brawny nodes
// remain. For the paper's parameters this yields
// (0,16), (32,12), (64,8), (96,4), (128,0) in (wimpy, brawny) counts.
func (b BudgetSpec) Ladder() ([]Mix, error) {
	if b.Budget <= 0 {
		return nil, fmt.Errorf("cluster: non-positive budget %v", b.Budget)
	}
	if b.Brawny.NominalPeak <= 0 {
		return nil, fmt.Errorf("cluster: brawny type %s has no rated peak", b.Brawny.Name)
	}
	ratio := b.SubstitutionRatio()
	if ratio <= 0 {
		return nil, fmt.Errorf("cluster: substitution ratio is %d; wimpy node (with switch share) does not fit under one brawny node", ratio)
	}
	step := b.BrawnyStep
	if step <= 0 {
		step = 1
	}
	maxBrawny := int(float64(b.Budget) / float64(b.Brawny.NominalPeak))
	if maxBrawny <= 0 {
		return nil, fmt.Errorf("cluster: budget %v cannot fit one %s node", b.Budget, b.Brawny.Name)
	}
	var mixes []Mix
	for k := 0; ; k++ {
		nBrawny := maxBrawny - k*step
		if nBrawny < 0 {
			break
		}
		nWimpy := k * step * ratio
		if !b.Fits(nWimpy, nBrawny) {
			return nil, fmt.Errorf("cluster: ladder mix %d wimpy + %d brawny exceeds budget (%v > %v)",
				nWimpy, nBrawny, b.PeakWithSwitches(nWimpy, nBrawny), b.Budget)
		}
		var groups []Group
		if nWimpy > 0 {
			groups = append(groups, FullNodes(b.Wimpy, nWimpy))
		}
		if nBrawny > 0 {
			groups = append(groups, FullNodes(b.Brawny, nBrawny))
		}
		cfg, err := NewConfig(groups...)
		if err != nil {
			return nil, err
		}
		mixes = append(mixes, Mix{Wimpy: nWimpy, Brawny: nBrawny, Config: cfg})
		if nBrawny == 0 {
			break
		}
	}
	return mixes, nil
}

// PowerBudget caps a configuration's budget-accounted peak power, as
// Section III-C holds mixes under a fixed envelope: every node at its
// rated peak, plus the switches that connect the nodes of the Switched
// type. Both parts add up group by group, and a group's share depends
// only on its type and node count, so a search can count and prune
// whole slices of a configuration space against the cap instead of
// testing one configuration at a time.
type PowerBudget struct {
	// Cap is the peak-power envelope.
	Cap units.Watts
	// Switched names the node type whose nodes hang off Switch (the
	// wimpy side, A9 in the paper).
	Switched string
	// Switch models the aggregation switches of the Switched nodes.
	Switch hardware.SwitchModel
}

// Shares returns the two parts of n nodes of type t in the budget: the
// nodes at their rated peak, as Config.NominalPeak counts a group, and
// the switches they hang off (0 unless t is the Switched type).
func (b PowerBudget) Shares(t *hardware.NodeType, n int) (nodes, switches units.Watts) {
	nodes = units.Watts(float64(t.NominalPeak) * float64(n))
	if t.Name == b.Switched {
		switches = b.Switch.Power(n)
	}
	return nodes, switches
}

// Peak returns cfg's budget-accounted peak power: its nominal peak
// (the groups' rated peaks, summed in group order), then the power of
// the switches its Switched nodes hang off.
func (b PowerBudget) Peak(cfg Config) units.Watts {
	return cfg.NominalPeak() + b.Switch.Power(cfg.Count(b.Switched))
}

// Fits reports whether cfg's peak stays within the cap.
func (b PowerBudget) Fits(cfg Config) bool { return b.Peak(cfg) <= b.Cap }
