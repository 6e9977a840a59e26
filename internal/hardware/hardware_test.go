package hardware

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestCatalogDefaults(t *testing.T) {
	c := DefaultCatalog()
	if len(c.types) != 4 {
		t.Fatalf("catalog has %d types, want 4", len(c.types))
	}
	want := []string{"A15", "A9", "K10", "XeonE5"}
	names := c.Names()
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestA9MatchesTable5(t *testing.T) {
	a9 := NewA9()
	if a9.Cores != 4 {
		t.Errorf("A9 cores = %d, want 4", a9.Cores)
	}
	if a9.FMin() != 0.2*units.GHz || a9.FMax() != 1.4*units.GHz {
		t.Errorf("A9 freq range %v-%v, want 0.2-1.4 GHz", a9.FMin(), a9.FMax())
	}
	if len(a9.Freq.Steps) != 5 {
		t.Errorf("A9 has %d frequency steps, footnote 4 counts 5", len(a9.Freq.Steps))
	}
	if a9.Power.Idle != 1.8 {
		t.Errorf("A9 idle = %v, want 1.8 W", a9.Power.Idle)
	}
	if a9.NominalPeak != 5 {
		t.Errorf("A9 rated peak = %v, want 5 W", a9.NominalPeak)
	}
	if a9.ISA != ISAARMv7 {
		t.Errorf("A9 ISA = %v", a9.ISA)
	}
}

func TestK10MatchesTable5(t *testing.T) {
	k10 := NewK10()
	if k10.Cores != 6 {
		t.Errorf("K10 cores = %d, want 6", k10.Cores)
	}
	if k10.FMin() != 0.8*units.GHz || k10.FMax() != 2.1*units.GHz {
		t.Errorf("K10 freq range %v-%v, want 0.8-2.1 GHz", k10.FMin(), k10.FMax())
	}
	if len(k10.Freq.Steps) != 3 {
		t.Errorf("K10 has %d frequency steps, footnote 4 counts 3", len(k10.Freq.Steps))
	}
	if k10.Power.Idle != 45 {
		t.Errorf("K10 idle = %v, want 45 W", k10.Power.Idle)
	}
	if k10.NominalPeak != 60 {
		t.Errorf("K10 rated peak = %v, want 60 W", k10.NominalPeak)
	}
}

func TestValidateCatchesBadNodes(t *testing.T) {
	base := NewA9()
	cases := []struct {
		name   string
		mutate func(*NodeType)
	}{
		{"no name", func(n *NodeType) { n.Name = "" }},
		{"no cores", func(n *NodeType) { n.Cores = 0 }},
		{"no freqs", func(n *NodeType) { n.Freq.Steps = nil }},
		{"descending freqs", func(n *NodeType) { n.Freq.Steps = []units.Hertz{2e9, 1e9} }},
		{"zero freq", func(n *NodeType) { n.Freq.Steps = []units.Hertz{0, 1e9} }},
		{"negative power", func(n *NodeType) { n.Power.Idle = -1 }},
		{"no NIC", func(n *NodeType) { n.NICBandwidth = 0 }},
		{"bad exponent", func(n *NodeType) { n.Freq.DynamicExponent = 0 }},
	}
	for _, c := range cases {
		n := *base
		n.Freq.Steps = append([]units.Hertz(nil), base.Freq.Steps...)
		c.mutate(&n)
		if err := n.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid node", c.name)
		}
	}
}

func TestHasFreqAndNearest(t *testing.T) {
	a9 := NewA9()
	if !a9.HasFreq(1.4 * units.GHz) {
		t.Error("1.4 GHz should be on the ladder")
	}
	if a9.HasFreq(1.0 * units.GHz) {
		t.Error("1.0 GHz is not on the A9 ladder")
	}
	if got := a9.NearestFreq(0.95 * units.GHz); got != 0.8*units.GHz {
		t.Errorf("nearest to 0.95 GHz = %v, want 0.8 GHz", got)
	}
	if got := a9.NearestFreq(10 * units.GHz); got != 1.4*units.GHz {
		t.Errorf("nearest to 10 GHz = %v, want 1.4 GHz", got)
	}
	if got := a9.NearestFreq(0); got != 0.2*units.GHz {
		t.Errorf("nearest to 0 = %v, want 0.2 GHz", got)
	}
}

func TestPowerAtScaling(t *testing.T) {
	a9 := NewA9()
	full := a9.PowerAt(a9.FMax())
	if full.CPUActPerCore != a9.Power.CPUActPerCore {
		t.Error("PowerAt(fmax) should be the nominal parameters")
	}
	half := a9.PowerAt(a9.FMax() / 2)
	wantScale := math.Pow(0.5, a9.Freq.DynamicExponent)
	if math.Abs(float64(half.CPUActPerCore)/float64(full.CPUActPerCore)-wantScale) > 1e-12 {
		t.Errorf("dynamic scale = %g, want %g",
			float64(half.CPUActPerCore)/float64(full.CPUActPerCore), wantScale)
	}
	// Static components do not scale with frequency.
	if half.Idle != full.Idle || half.Mem != full.Mem || half.Net != full.Net {
		t.Error("static power components scaled with frequency")
	}
}

// TestPowerAtMonotone: CPU power must rise monotonically with frequency
// for any node in the catalog.
func TestPowerAtMonotone(t *testing.T) {
	c := DefaultCatalog()
	for _, name := range c.Names() {
		n, err := c.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		prev := units.Watts(-1)
		for _, f := range n.Freq.Steps {
			p := n.PowerAt(f).CPUActPerCore
			if p <= prev {
				t.Errorf("%s: active power not increasing at %v", name, f)
			}
			prev = p
		}
	}
}

func TestMaxBusyPowerComposition(t *testing.T) {
	// The max busy power is the component sum at full activity: all
	// cores active at FMax plus memory and NIC activity on top of idle.
	maxBusy := func(n *NodeType) units.Watts {
		p := n.PowerAt(n.FMax())
		return p.Idle + units.Watts(float64(p.CPUActPerCore)*float64(n.Cores)) + p.Mem + p.Net
	}
	// The wimpy A9 stays under its 5 W rating even fully loaded. The K10
	// deliberately does NOT: the paper's own Table 7 IPRs imply busy
	// powers up to 45/0.588 = 76.5 W against the 60 W rating its budget
	// footnote uses — an inconsistency the calibration inherits. Keep
	// the overshoot bounded so the budget math stays meaningful.
	a9 := NewA9()
	if got := maxBusy(a9); got > a9.NominalPeak {
		t.Errorf("A9 max busy power %v exceeds its 5 W rating", got)
	}
	k10 := NewK10()
	if got := maxBusy(k10); float64(got) > 1.5*float64(k10.NominalPeak) {
		t.Errorf("K10 max busy power %v further than 1.5x from its rating", got)
	}
}

func TestCatalogRegisterErrors(t *testing.T) {
	c := NewCatalog()
	a9 := NewA9()
	if err := c.Register(a9); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(NewA9()); err == nil {
		t.Error("duplicate registration accepted")
	}
	bad := NewK10()
	bad.Cores = 0
	if err := c.Register(bad); err == nil {
		t.Error("invalid node registration accepted")
	}
	if _, err := c.Lookup("nope"); err == nil {
		t.Error("lookup of unknown type succeeded")
	}
}

func TestSwitchSubstitutionRatioPaper(t *testing.T) {
	sw := DefaultSwitch()
	if got := sw.SubstitutionRatio(NewA9(), NewK10()); got != 8 {
		t.Errorf("substitution ratio = %d, want 8 (footnote 3)", got)
	}
	// Effective per-node peak: 5 W + 20/8 W = 7.5 W.
	if got := sw.EffectivePeakPerNode(NewA9()); got != 7.5 {
		t.Errorf("effective peak = %v, want 7.5 W", got)
	}
}

// TestSwitchPowerMonotone is a property: switch power never decreases
// with node count and is 0 for 0 nodes.
func TestSwitchPowerMonotone(t *testing.T) {
	sw := DefaultSwitch()
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw), int(bRaw)
		if a > b {
			a, b = b, a
		}
		return sw.Power(a) <= sw.Power(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if sw.Power(0) != 0 {
		t.Error("switch power for 0 nodes should be 0")
	}
}

func TestNodeString(t *testing.T) {
	s := NewA9().String()
	for _, frag := range []string{"A9", "4 cores", "1.8W", "5W"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String %q missing %q", s, frag)
		}
	}
}
