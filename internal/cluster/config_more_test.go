package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/hardware"
)

func TestConfigAccessors(t *testing.T) {
	cat := hardware.DefaultCatalog()
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	c := MustConfig(FullNodes(a9, 32), FullNodes(k10, 12))

	if got := c.Nodes(); got != 44 {
		t.Errorf("Nodes = %d, want 44", got)
	}
	if got := c.Degree(); got != 2 {
		t.Errorf("Degree = %d, want 2", got)
	}
	if got := c.Count("A9"); got != 32 {
		t.Errorf("Count(A9) = %d", got)
	}
	if got := c.Count("K10"); got != 12 {
		t.Errorf("Count(K10) = %d", got)
	}
	if got := c.Count("XeonE5"); got != 0 {
		t.Errorf("Count of absent type = %d", got)
	}
	// Rated peak: 32*5 + 12*60 = 880 W (no switches in NominalPeak).
	if got := c.NominalPeak(); got != 880 {
		t.Errorf("NominalPeak = %v, want 880 W", got)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("empty config validated")
	}
}

func TestConfigKeyCanonical(t *testing.T) {
	cat := hardware.DefaultCatalog()
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	// Group order at construction does not matter: keys are canonical.
	c1 := MustConfig(FullNodes(a9, 4), FullNodes(k10, 2))
	c2 := MustConfig(FullNodes(k10, 2), FullNodes(a9, 4))
	if c1.Key() != c2.Key() {
		t.Errorf("keys differ for identical configs: %q vs %q", c1.Key(), c2.Key())
	}
	// Different cores or frequency produce different keys.
	c3 := MustConfig(Group{Type: a9, Count: 4, Cores: 2, Freq: a9.FMax()}, FullNodes(k10, 2))
	if c3.Key() == c1.Key() {
		t.Error("core count not part of the key")
	}
	if !strings.Contains(c1.Key(), "A9") || !strings.Contains(c1.Key(), "K10") {
		t.Errorf("key %q missing type names", c1.Key())
	}
}

func TestNewConfigDropsEmptyGroups(t *testing.T) {
	cat := hardware.DefaultCatalog()
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	c, err := NewConfig(FullNodes(a9, 4), Group{Type: k10, Count: 0})
	if err != nil {
		t.Fatal(err)
	}
	if c.Degree() != 1 {
		t.Errorf("zero-count group not dropped: degree %d", c.Degree())
	}
}

// fmtConfigString is the fmt form Config.String replaced, the frequency
// included (Hertz.String's %.4g with an SI prefix).
func fmtConfigString(c Config) string {
	hz := func(v float64) string {
		switch abs := math.Abs(v); {
		case abs == 0:
			return "0Hz"
		case abs >= 1e9:
			return fmt.Sprintf("%.4gGHz", v/1e9)
		case abs >= 1e6:
			return fmt.Sprintf("%.4gMHz", v/1e6)
		case abs >= 1e3:
			return fmt.Sprintf("%.4gkHz", v/1e3)
		case abs >= 1:
			return fmt.Sprintf("%.4gHz", v)
		case abs >= 1e-3:
			return fmt.Sprintf("%.4gmHz", v*1e3)
		case abs >= 1e-6:
			return fmt.Sprintf("%.4guHz", v*1e6)
		default:
			return fmt.Sprintf("%.4gnHz", v*1e9)
		}
	}
	parts := make([]string, len(c.Groups))
	for i, g := range c.Groups {
		s := fmt.Sprintf("%d %s", g.Count, g.Type.Name)
		if g.Cores != g.Type.Cores || g.Freq != g.Type.FMax() {
			s += fmt.Sprintf("(%dc@%s)", g.Cores, hz(float64(g.Freq)))
		}
		parts[i] = s
	}
	return strings.Join(parts, ": ")
}

// TestConfigStringMatchesFmt: Config.String prints what its fmt form
// printed for every catalog type at every (cores, freq) pair, alone and
// beside every other type's pairs, at small and huge node counts.
func TestConfigStringMatchesFmt(t *testing.T) {
	cat := hardware.DefaultCatalog()
	var groups []Group
	for _, name := range cat.Names() {
		nt, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for c := 1; c <= nt.Cores; c++ {
			for _, f := range nt.Freq.Steps {
				groups = append(groups, Group{Type: nt, Count: 1, Cores: c, Freq: f})
			}
		}
	}
	check := func(c Config) {
		t.Helper()
		if got, want := c.String(), fmtConfigString(c); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
	check(Config{})
	for _, count := range []int{1, 7, 128, math.MaxInt} {
		for i, a := range groups {
			a.Count = count
			check(Config{Groups: []Group{a}})
			for _, b := range groups[i+1:] {
				if b.Type != a.Type {
					check(Config{Groups: []Group{a, b}})
				}
			}
		}
	}
}
