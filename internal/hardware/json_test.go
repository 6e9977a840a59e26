package hardware

import (
	"bytes"
	"strings"
	"testing"
)

func TestCatalogJSONRoundTrip(t *testing.T) {
	orig := DefaultCatalog()
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCatalogJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.types) != len(orig.types) {
		t.Fatalf("round trip lost types: %d vs %d", len(back.types), len(orig.types))
	}
	for _, name := range orig.Names() {
		a, err := orig.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Lookup(name)
		if err != nil {
			t.Fatalf("type %s lost in round trip: %v", name, err)
		}
		if a.Cores != b.Cores || a.Power != b.Power || a.NominalPeak != b.NominalPeak ||
			a.NICBandwidth != b.NICBandwidth || len(a.Freq.Steps) != len(b.Freq.Steps) {
			t.Errorf("type %s changed in round trip:\n  %+v\n  %+v", name, a, b)
		}
		for i := range a.Freq.Steps {
			if a.Freq.Steps[i] != b.Freq.Steps[i] {
				t.Errorf("type %s frequency step %d changed: %v vs %v",
					name, i, a.Freq.Steps[i], b.Freq.Steps[i])
			}
		}
	}
}

func TestReadCatalogJSONValidates(t *testing.T) {
	cases := map[string]string{
		"not json":        "{",
		"unknown field":   `[{"name":"X","cores":1,"freq_ghz":[1],"nic_bandwidth_bps":1,"power":{"idle_w":1},"nominal_peak_w":1,"bogus":true}]`,
		"no cores":        `[{"name":"X","cores":0,"freq_ghz":[1],"nic_bandwidth_bps":1,"power":{"idle_w":1},"nominal_peak_w":1}]`,
		"no freqs":        `[{"name":"X","cores":1,"freq_ghz":[],"nic_bandwidth_bps":1,"power":{"idle_w":1},"nominal_peak_w":1}]`,
		"duplicate names": `[{"name":"X","cores":1,"freq_ghz":[1],"nic_bandwidth_bps":1,"power":{"idle_w":1},"nominal_peak_w":1},{"name":"X","cores":1,"freq_ghz":[1],"nic_bandwidth_bps":1,"power":{"idle_w":1},"nominal_peak_w":1}]`,
	}
	for label, in := range cases {
		if _, err := ReadCatalogJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestReadCatalogJSONDefaults(t *testing.T) {
	in := `[{"name":"Tiny","cores":2,"freq_ghz":[1.0, 0.5],"nic_bandwidth_bps":1e8,
		"power":{"cpu_act_per_core_w":0.5,"cpu_stall_per_core_w":0.2,"mem_w":0.3,"net_w":0.1,"idle_w":1},
		"nominal_peak_w":3}]`
	c, err := ReadCatalogJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Lookup("Tiny")
	if err != nil {
		t.Fatal(err)
	}
	if n.Freq.DynamicExponent != defaultDynamicExponent {
		t.Errorf("default exponent not applied: %g", n.Freq.DynamicExponent)
	}
	// Frequencies are sorted ascending regardless of input order.
	if n.FMin() != 0.5e9 || n.FMax() != 1e9 {
		t.Errorf("frequencies not normalized: %v-%v", n.FMin(), n.FMax())
	}
}

func TestMergeJSON(t *testing.T) {
	c := DefaultCatalog()
	in := `[{"name":"Edge","cores":4,"freq_ghz":[1.5],"nic_bandwidth_bps":1e9,
		"power":{"cpu_act_per_core_w":1,"cpu_stall_per_core_w":0.4,"mem_w":0.5,"net_w":0.5,"idle_w":3},
		"nominal_peak_w":9}]`
	if err := c.MergeJSON(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("Edge"); err != nil {
		t.Errorf("merged type missing: %v", err)
	}
	// Merging a duplicate of a built-in type fails.
	dup := `[{"name":"A9","cores":4,"freq_ghz":[1.4],"nic_bandwidth_bps":1e7,
		"power":{"cpu_act_per_core_w":1,"cpu_stall_per_core_w":1,"mem_w":1,"net_w":1,"idle_w":1},
		"nominal_peak_w":5}]`
	if err := c.MergeJSON(strings.NewReader(dup)); err == nil {
		t.Error("duplicate merge accepted")
	}
}
