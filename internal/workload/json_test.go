package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/hardware"
)

func TestProfileJSONRoundTrip(t *testing.T) {
	cat := hardware.DefaultCatalog()
	reg, err := PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range PaperNames() {
		p, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadProfileJSON(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.Name != p.Name || back.JobUnits != p.JobUnits ||
			back.IORate != p.IORate || back.Irregularity != p.Irregularity {
			t.Errorf("%s: header changed in round trip", name)
		}
		for nt := range p.demands {
			a, _ := p.Demand(nt)
			b, err := back.Demand(nt)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, nt, err)
			}
			if a != b {
				t.Errorf("%s/%s: demand changed: %+v vs %+v", name, nt, a, b)
			}
		}
	}
}

func TestRegistryJSONRoundTrip(t *testing.T) {
	cat := hardware.DefaultCatalog()
	reg, err := PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRegistryJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.profiles) != len(reg.profiles) {
		t.Errorf("registry round trip lost profiles: %d vs %d", len(back.profiles), len(reg.profiles))
	}
}

func TestReadProfileJSONValidates(t *testing.T) {
	cases := map[string]string{
		"not json":      "{",
		"unknown field": `{"name":"x","unit":"u","job_units":1,"demands":{},"bogus":1}`,
		"no demands":    `{"name":"x","unit":"u","job_units":1,"demands":{}}`,
		"zero units":    `{"name":"x","unit":"u","job_units":0,"demands":{"A9":{"core_cycles_per_unit":1,"intensity":1}}}`,
		"bad intensity": `{"name":"x","unit":"u","job_units":1,"demands":{"A9":{"core_cycles_per_unit":1,"intensity":0}}}`,
	}
	for label, in := range cases {
		if _, err := ReadProfileJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestReadProfileJSONDefaultsDomain(t *testing.T) {
	in := `{"name":"x","unit":"ops","job_units":10,
		"demands":{"A9":{"core_cycles_per_unit":100,"intensity":0.5}}}`
	p, err := ReadProfileJSON(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.Domain != DomainSynthetic {
		t.Errorf("default domain = %q", p.Domain)
	}
}
