package cluster

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hardware"
	"repro/internal/units"
)

func TestFootnote4SpaceSize(t *testing.T) {
	// Footnote 4: 10 ARM nodes x 5 freqs x 4 cores and 10 AMD nodes x
	// 3 freqs x 6 cores give 36,000 mixed + 200 ARM-only + 180 AMD-only
	// = 36,380 configurations.
	cat := hardware.DefaultCatalog()
	arm, err := cat.Lookup("A9")
	if err != nil {
		t.Fatal(err)
	}
	amd, err := cat.Lookup("K10")
	if err != nil {
		t.Fatal(err)
	}
	limits := []Limit{
		{Type: arm, MaxNodes: 10},
		{Type: amd, MaxNodes: 10},
	}
	if got := SpaceSize(limits); got != 36380 {
		t.Fatalf("SpaceSize = %d, want 36380", got)
	}
	// Enumerate must agree with the closed form.
	count := 0
	if err := Enumerate(limits, func(Config) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 36380 {
		t.Errorf("Enumerate yielded %d configs, want 36380", count)
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	cat := hardware.DefaultCatalog()
	arm, _ := cat.Lookup("A9")
	limits := []Limit{{Type: arm, MaxNodes: 10}}
	count := 0
	if err := Enumerate(limits, func(Config) bool { count++; return count < 5 }); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("early stop after %d configs, want 5", count)
	}
}

func TestEnumerateFixedCoresAndFreq(t *testing.T) {
	cat := hardware.DefaultCatalog()
	arm, _ := cat.Lookup("A9")
	amd, _ := cat.Lookup("K10")
	limits := []Limit{
		{Type: arm, MaxNodes: 32, FixCoresAndFreq: true},
		{Type: amd, MaxNodes: 12, FixCoresAndFreq: true},
	}
	// 32*12 mixed + 32 + 12 = 428.
	if got := SpaceSize(limits); got != 428 {
		t.Errorf("SpaceSize = %d, want 428", got)
	}
	configs, err := EnumerateAll(limits)
	if err != nil {
		t.Fatal(err)
	}
	if len(configs) != 428 {
		t.Errorf("got %d configs, want 428", len(configs))
	}
	for _, c := range configs {
		for _, g := range c.Groups {
			if g.Cores != g.Type.Cores || g.Freq != g.Type.FMax() {
				t.Fatalf("config %s not pinned to full cores at fmax", c)
			}
		}
	}
}

func TestConfigStringPaperStyle(t *testing.T) {
	cat := hardware.DefaultCatalog()
	arm, _ := cat.Lookup("A9")
	amd, _ := cat.Lookup("K10")
	c := MustConfig(FullNodes(arm, 32), FullNodes(amd, 12))
	if got := c.String(); got != "32 A9: 12 K10" {
		t.Errorf("String = %q, want \"32 A9: 12 K10\"", got)
	}
	// Deviating cores/freq are annotated.
	c2 := MustConfig(Group{Type: arm, Count: 4, Cores: 2, Freq: arm.FMin()})
	if got := c2.String(); !strings.Contains(got, "2c@") {
		t.Errorf("String = %q, want core/freq annotation", got)
	}
}

func TestConfigRejectsInvalid(t *testing.T) {
	cat := hardware.DefaultCatalog()
	arm, _ := cat.Lookup("A9")
	if _, err := NewConfig(); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewConfig(Group{Type: arm, Count: 1, Cores: 99, Freq: arm.FMax()}); err == nil {
		t.Error("excess cores accepted")
	}
	if _, err := NewConfig(Group{Type: arm, Count: 1, Cores: 1, Freq: 12345}); err == nil {
		t.Error("off-ladder frequency accepted")
	}
	if _, err := NewConfig(FullNodes(arm, 1), FullNodes(arm, 2)); err == nil {
		t.Error("duplicate group accepted")
	}
}

func TestBudgetLadderMatchesPaper(t *testing.T) {
	cat := hardware.DefaultCatalog()
	spec, err := DefaultBudget(cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.SubstitutionRatio(); got != 8 {
		t.Fatalf("substitution ratio = %d, want 8 (footnote 3)", got)
	}
	ladder, err := spec.Ladder()
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int{{0, 16}, {32, 12}, {64, 8}, {96, 4}, {128, 0}}
	if len(ladder) != len(want) {
		t.Fatalf("ladder has %d mixes, want %d: %+v", len(ladder), len(want), ladder)
	}
	for i, m := range ladder {
		if m.Wimpy != want[i][0] || m.Brawny != want[i][1] {
			t.Errorf("ladder[%d] = %d A9, %d K10; want %d, %d",
				i, m.Wimpy, m.Brawny, want[i][0], want[i][1])
		}
		if peak := spec.PeakWithSwitches(m.Wimpy, m.Brawny); peak > spec.Budget {
			t.Errorf("ladder[%d] peak %v exceeds budget %v", i, peak, spec.Budget)
		}
	}
}

// TestPowerBudgetPeak: a PowerBudget sums a mix's peak as the budget
// ladder and a filter adding the wimpy switches to the configuration's
// nominal peak do — the rated peaks in group order, then the switches —
// bit for bit, so a sweep under it filters the same configurations; so
// do the per-group Shares summed part by part, as the frontier sweep
// sums them. The paper's integer peaks add up exactly in any order; the
// fractional pair (4.7 W, 61.3 W) rounds differently in 50 of these
// mixes when the switches join the wimpy group first.
func TestPowerBudgetPeak(t *testing.T) {
	spec, err := DefaultBudget(hardware.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	frac := spec
	wimpy, brawny := *spec.Wimpy, *spec.Brawny
	wimpy.NominalPeak, brawny.NominalPeak = 4.7, 61.3
	frac.Wimpy, frac.Brawny = &wimpy, &brawny
	for _, spec := range []BudgetSpec{spec, frac} {
		b := PowerBudget{Cap: spec.Budget, Switched: spec.Wimpy.Name, Switch: spec.Switch}
		for nW := 0; nW <= 40; nW++ {
			for nB := 0; nB <= 16; nB++ {
				if nW+nB == 0 {
					continue
				}
				cfg := MustConfig(FullNodes(spec.Wimpy, nW), FullNodes(spec.Brawny, nB))
				got := b.Peak(cfg)
				filter := units.Watts(float64(cfg.NominalPeak()) + float64(spec.Switch.Power(cfg.Count("A9"))))
				var nodes, switches units.Watts
				for _, g := range cfg.Groups {
					n, s := b.Shares(g.Type, g.Count)
					nodes, switches = nodes+n, switches+s
				}
				if got != spec.PeakWithSwitches(nW, nB) || got != filter || got != nodes+switches {
					t.Fatalf("%v W A9 x %d + %v W K10 x %d: peak %v, ladder %v, filter %v, shares %v",
						spec.Wimpy.NominalPeak, nW, spec.Brawny.NominalPeak, nB, got, spec.PeakWithSwitches(nW, nB), filter, nodes+switches)
				}
				if b.Fits(cfg) != spec.Fits(nW, nB) {
					t.Fatalf("%d A9 + %d K10: Fits %v, ladder %v", nW, nB, b.Fits(cfg), spec.Fits(nW, nB))
				}
			}
		}
	}
}

// TestIdlePowerAdditive is a property: idle power of a config equals the
// sum over groups of count*idle.
func TestIdlePowerAdditive(t *testing.T) {
	cat := hardware.DefaultCatalog()
	arm, _ := cat.Lookup("A9")
	amd, _ := cat.Lookup("K10")
	f := func(nA, nK uint8) bool {
		a := int(nA%64) + 1
		k := int(nK%16) + 1
		c := MustConfig(FullNodes(arm, a), FullNodes(amd, k))
		want := units.Watts(float64(a)*1.8 + float64(k)*45)
		return float64(c.IdlePower()-want) < 1e-9 && float64(want-c.IdlePower()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSwitchPowerModel(t *testing.T) {
	sw := hardware.DefaultSwitch()
	cases := []struct {
		nodes int
		want  units.Watts
	}{{0, 0}, {1, 20}, {8, 20}, {9, 40}, {32, 80}, {128, 320}}
	for _, c := range cases {
		if got := sw.Power(c.nodes); got != c.want {
			t.Errorf("switch power for %d nodes = %v, want %v", c.nodes, got, c.want)
		}
	}
}

// TestEnumerateAllPreallocatesExactly: for asymmetric multi-type limits
// (mixed core caps, frequency restrictions and a fixed type), SpaceSize
// matches the enumerated count exactly and EnumerateAll sizes its
// result up front — the returned slice never grew past the closed-form
// capacity.
func TestEnumerateAllPreallocatesExactly(t *testing.T) {
	cat := hardware.DefaultCatalog()
	arm, err := cat.Lookup("A9")
	if err != nil {
		t.Fatal(err)
	}
	amd, err := cat.Lookup("K10")
	if err != nil {
		t.Fatal(err)
	}
	xeon, err := cat.Lookup("XeonE5")
	if err != nil {
		t.Fatal(err)
	}
	limits := []Limit{
		{Type: arm, MaxNodes: 3, MaxCores: 2},               // 3*2*5 = 30 choices
		{Type: amd, MaxNodes: 2, Freqs: amd.Freq.Steps[:2]}, // 2*6*2 = 24 choices
		{Type: xeon, MaxNodes: 4, FixCoresAndFreq: true},    // 4 choices
	}
	want := (1+30)*(1+24)*(1+4) - 1
	if got := SpaceSize(limits); got != want {
		t.Fatalf("SpaceSize = %d, want %d", got, want)
	}
	out, err := EnumerateAll(limits)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != want {
		t.Fatalf("EnumerateAll yielded %d configs, SpaceSize says %d", len(out), want)
	}
	if cap(out) != want {
		t.Errorf("EnumerateAll capacity %d, want exactly SpaceSize %d (preallocated, no growth)",
			cap(out), want)
	}
	// A type with no nodes, or a negative node cap, adds no choices.
	for _, n := range []int{0, -1} {
		none := append([]Limit{{Type: xeon, MaxNodes: n}}, limits[:2]...)
		if got, want := SpaceSize(none), (1+30)*(1+24)-1; got != want {
			t.Errorf("SpaceSize with a MaxNodes %d type = %d, want %d", n, got, want)
		}
		if all, err := EnumerateAll(none); err != nil || len(all) != SpaceSize(none) {
			t.Errorf("MaxNodes %d: EnumerateAll yielded %d configs (err %v), SpaceSize says %d", n, len(all), err, SpaceSize(none))
		}
	}
	// The per-type choices are the space Enumerate consumes.
	if got := len(limits[0].perTypeChoices()); got != 30 {
		t.Errorf("A9 choices = %d, want 30", got)
	}
	if got := len(limits[2].perTypeChoices()); got != 4 {
		t.Errorf("fixed XeonE5 choices = %d, want 4", got)
	}
}

// TestEnumerateAllInvalidLimits: validation errors surface before any
// preallocation math touches the (possibly nil) node types.
func TestEnumerateAllInvalidLimits(t *testing.T) {
	if _, err := EnumerateAll([]Limit{{Type: nil, MaxNodes: 3}}); err == nil {
		t.Fatal("nil type accepted")
	}
	if err := ValidateLimits([]Limit{{Type: nil}}); err == nil {
		t.Fatal("ValidateLimits accepted nil type")
	}
}

// TestValidateLimitsRejectsUnbuildableSpaces: limits whose space holds
// configurations NewConfig refuses — a frequency off the type's
// ladder, a second limit on one node type — fail validation, so
// Enumerate and EnumerateAll return an error instead of panicking
// mid-walk; so do limits listing a frequency twice, whose space would
// hold every configuration at that frequency twice; and SpaceSize,
// which callers may run before validating, counts no choices for a
// type that is nil or has no cores.
func TestValidateLimitsRejectsUnbuildableSpaces(t *testing.T) {
	a9 := hardware.NewA9()
	noCores := hardware.NewA9()
	noCores.Cores = -1
	for _, c := range []struct {
		name   string
		limits []Limit
		size   int
	}{
		{"frequency off the ladder", []Limit{{Type: a9, MaxNodes: 1, Freqs: []units.Hertz{123}}}, a9.Cores},
		{"ladder and off-ladder frequencies", []Limit{{Type: a9, MaxNodes: 2, Freqs: []units.Hertz{a9.FMax(), 123}}}, 2 * a9.Cores * 2},
		{"frequency listed twice", []Limit{{Type: a9, MaxNodes: 1, Freqs: []units.Hertz{a9.FMax(), a9.FMax()}}}, a9.Cores * 2},
		{"two limits on one type", []Limit{{Type: a9, MaxNodes: 2, FixCoresAndFreq: true}, {Type: a9, MaxNodes: 2, FixCoresAndFreq: true}}, 8},
		{"two types of one name", []Limit{{Type: a9, MaxNodes: 1, FixCoresAndFreq: true}, {Type: hardware.NewA9(), MaxNodes: 1, FixCoresAndFreq: true}}, 3},
		{"negative cores", []Limit{{Type: noCores, MaxNodes: 2}}, 0},
		{"negative cores, fixed", []Limit{{Type: noCores, MaxNodes: 2, FixCoresAndFreq: true}}, 0},
		{"nil type", []Limit{{Type: nil, MaxNodes: 3}}, 0},
	} {
		if got := SpaceSize(c.limits); got != c.size {
			t.Errorf("%s: SpaceSize = %d, want %d", c.name, got, c.size)
		}
		if err := ValidateLimits(c.limits); err == nil {
			t.Errorf("%s: ValidateLimits accepted the limits", c.name)
		}
		if err := Enumerate(c.limits, func(Config) bool { return true }); err == nil {
			t.Errorf("%s: Enumerate accepted the limits", c.name)
		}
		if _, err := EnumerateAll(c.limits); err == nil {
			t.Errorf("%s: EnumerateAll accepted the limits", c.name)
		}
	}
}

// TestOperatingPoints: the per-unit operating points are exactly the
// distinct (cores, freq) pairs of the limit — the count-independent
// set the model table memoizes on — with count pinned to one node.
func TestOperatingPoints(t *testing.T) {
	cat := hardware.DefaultCatalog()
	a9, err := cat.Lookup("A9")
	if err != nil {
		t.Fatal(err)
	}
	l := Limit{Type: a9, MaxNodes: 7}
	ops := l.OperatingPoints()
	choices := l.perTypeChoices()
	if len(ops)*l.MaxNodes != len(choices) {
		t.Fatalf("%d operating points x %d nodes != %d choices", len(ops), l.MaxNodes, len(choices))
	}
	seen := make(map[string]bool, len(ops))
	for _, g := range ops {
		if g.Count != 1 {
			t.Fatalf("operating point %v has count %d, want 1", g, g.Count)
		}
		key := fmt.Sprintf("%d@%v", g.Cores, g.Freq)
		if seen[key] {
			t.Fatalf("duplicate operating point %s", key)
		}
		seen[key] = true
	}
	for _, g := range choices {
		if !seen[fmt.Sprintf("%d@%v", g.Cores, g.Freq)] {
			t.Fatalf("choice %v has no operating point", g)
		}
	}
	if got := (Limit{Type: a9, MaxNodes: 0}).OperatingPoints(); got != nil {
		t.Fatalf("MaxNodes=0 returned %d operating points", len(got))
	}
	fixed := Limit{Type: a9, MaxNodes: 3, FixCoresAndFreq: true}
	if got := fixed.OperatingPoints(); len(got) != 1 {
		t.Fatalf("FixCoresAndFreq limit has %d operating points, want 1", len(got))
	}
}
