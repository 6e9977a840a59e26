package cli

import (
	"testing"

	"repro/internal/hardware"
)

// FuzzParseMix drives arbitrary mix strings through the parser: it must
// never panic, and on success the configuration must validate.
func FuzzParseMix(f *testing.F) {
	for _, seed := range []string{
		"32xA9,12xK10",
		"1xA9",
		"",
		"0xA9",
		",,,",
		"axb",
		"4xA9,4xA9",
		"9999999999999999999xA9",
		" 2 x K10 ",
		"-3xA9",
		"2xa9",
		"2xA9,3xXeonE5,1xA15",
	} {
		f.Add(seed, 0, 0.0)
	}
	cat := hardware.DefaultCatalog()
	f.Fuzz(func(t *testing.T, mix string, cores int, freqGHz float64) {
		cfg, err := ParseMix(cat, mix, cores, freqGHz)
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ParseMix(%q, %d, %g) returned invalid config: %v", mix, cores, freqGHz, err)
		}
		nodes := 0
		for _, g := range cfg.Groups {
			nodes += g.Count
		}
		if nodes <= 0 {
			t.Fatalf("ParseMix(%q) returned empty config without error", mix)
		}
	})
}
