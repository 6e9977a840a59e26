package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hardware"
	"repro/internal/stats"
	"repro/internal/units"
)

func TestPaperRegistryComplete(t *testing.T) {
	cat := hardware.DefaultCatalog()
	reg, err := PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.profiles) != 6 {
		t.Fatalf("registry has %d workloads, want 6", len(reg.profiles))
	}
	for _, name := range PaperNames() {
		p, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, nt := range []string{"A9", "K10"} {
			if !p.Supports(nt) {
				t.Errorf("%s missing demand for %s", name, nt)
			}
		}
		if p.JobUnits <= 0 {
			t.Errorf("%s has no job size", name)
		}
		if p.Unit == "" {
			t.Errorf("%s has no work unit label", name)
		}
	}
}

// TestCalibrationForwardConsistency verifies the calibration algebra
// directly: the demand vector must reproduce the target throughput and
// busy power through the same formulas the model uses.
func TestCalibrationForwardConsistency(t *testing.T) {
	cat := hardware.DefaultCatalog()
	for _, wl := range PaperNames() {
		spec, err := PaperSpec(wl)
		if err != nil {
			t.Fatal(err)
		}
		for nt, tgt := range spec.Targets {
			node, err := cat.Lookup(nt)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Calibrate(node, spec.Structure[nt], tgt)
			if err != nil {
				t.Fatalf("%s on %s: %v", wl, nt, err)
			}
			// Forward: per-unit time and busy power.
			p := node.PowerAt(node.FMax())
			c := float64(node.Cores)
			f := float64(node.FMax())
			tCore := float64(d.CoreCycles) / (c * f)
			tMem := float64(d.MemCycles) / f
			tIO := float64(d.IOBytes) / float64(node.NICBandwidth)
			tUnit := math.Max(math.Max(tCore, tMem), tIO)
			tStall := math.Max(0, tMem-tCore)
			pBusy := float64(p.Idle) +
				d.Intensity*float64(p.CPUActPerCore)*c*(tCore/tUnit) +
				float64(p.CPUStallPerCore)*c*(tStall/tUnit) +
				float64(p.Mem)*(tMem/tUnit) +
				float64(p.Net)*(tIO/tUnit)
			wantBusy := float64(p.Idle) / tgt.IPR
			if stats.RelErr(pBusy, wantBusy) > 1e-9 {
				t.Errorf("%s on %s: busy power %g, want %g", wl, nt, pBusy, wantBusy)
			}
			throughput := 1 / tUnit
			wantThr := tgt.PPR * wantBusy
			if stats.RelErr(throughput, wantThr) > 1e-9 {
				t.Errorf("%s on %s: throughput %g, want %g", wl, nt, throughput, wantThr)
			}
		}
	}
}

func TestCalibrateRejectsBadInputs(t *testing.T) {
	node := hardware.NewA9()
	good := Structure{CoreFrac: 1, MemFrac: 0.1, IOFrac: 0}
	if _, err := Calibrate(node, good, Targets{PPR: 0, IPR: 0.5}); err == nil {
		t.Error("zero PPR accepted")
	}
	if _, err := Calibrate(node, good, Targets{PPR: 1, IPR: 0}); err == nil {
		t.Error("zero IPR accepted")
	}
	if _, err := Calibrate(node, good, Targets{PPR: 1, IPR: 1.5}); err == nil {
		t.Error("IPR > 1 accepted")
	}
	if _, err := Calibrate(node, Structure{CoreFrac: 0.5, MemFrac: 0.1}, Targets{PPR: 1, IPR: 0.5}); err == nil {
		t.Error("structure without binding fraction 1 accepted")
	}
	// A power target below the structure's non-CPU floor is infeasible.
	ioHeavy := Structure{CoreFrac: 0.01, MemFrac: 0.9, IOFrac: 1}
	if _, err := Calibrate(node, ioHeavy, Targets{PPR: 1e6, IPR: 0.999}); err == nil {
		t.Error("infeasible power target accepted")
	}
}

func TestStructureValidate(t *testing.T) {
	if err := (Structure{CoreFrac: 1, MemFrac: 0.5, IOFrac: 0}).Validate(); err != nil {
		t.Errorf("valid structure rejected: %v", err)
	}
	if err := (Structure{CoreFrac: 0.9, MemFrac: 0.5}).Validate(); err == nil {
		t.Error("no binding resource accepted")
	}
	if err := (Structure{CoreFrac: 1, MemFrac: -0.1}).Validate(); err == nil {
		t.Error("negative fraction accepted")
	}
}

func TestDemandValidate(t *testing.T) {
	if err := (Demand{CoreCycles: 1, Intensity: 0.5}).Validate(); err != nil {
		t.Errorf("valid demand rejected: %v", err)
	}
	if err := (Demand{Intensity: 1}).Validate(); err == nil {
		t.Error("zero-usage demand accepted")
	}
	if err := (Demand{CoreCycles: 1, Intensity: 0}).Validate(); err == nil {
		t.Error("zero intensity accepted")
	}
	if err := (Demand{CoreCycles: -1, Intensity: 1}).Validate(); err == nil {
		t.Error("negative cycles accepted")
	}
}

func TestProfileDemandAccess(t *testing.T) {
	p := NewProfile("x", DomainSynthetic, "u", 10)
	if _, err := p.Demand("A9"); err == nil {
		t.Error("missing demand lookup succeeded")
	}
	if err := p.SetDemand("A9", Demand{CoreCycles: 5, Intensity: 1}); err != nil {
		t.Fatal(err)
	}
	d, err := p.Demand("A9")
	if err != nil || d.CoreCycles != 5 {
		t.Errorf("demand round-trip failed: %v %v", d, err)
	}
	if _, ok := p.demands["A9"]; len(p.demands) != 1 || !ok {
		t.Errorf("node types = %v", p.demands)
	}
}

func TestProfileValidate(t *testing.T) {
	p := NewProfile("", DomainSynthetic, "u", 10)
	if err := p.Validate(); err == nil {
		t.Error("unnamed profile accepted")
	}
	p = NewProfile("x", DomainSynthetic, "u", 0)
	if err := p.Validate(); err == nil {
		t.Error("zero job units accepted")
	}
	p = NewProfile("x", DomainSynthetic, "u", 1)
	if err := p.Validate(); err == nil {
		t.Error("profile without demands accepted")
	}
}

func TestRegistryDuplicate(t *testing.T) {
	r := NewRegistry()
	p := NewProfile("dup", DomainSynthetic, "u", 1)
	if err := p.SetDemand("A9", Demand{CoreCycles: 1, Intensity: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(p); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(p); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestMemcachedArrivalLimitedOnK10(t *testing.T) {
	cat := hardware.DefaultCatalog()
	reg, err := PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := reg.Lookup(NameMemcached)
	if err != nil {
		t.Fatal(err)
	}
	if mc.IORate <= 0 {
		t.Fatal("memcached needs an I/O request rate")
	}
	k10, err := mc.Demand("K10")
	if err != nil {
		t.Fatal(err)
	}
	if k10.IOReqs <= 0 {
		t.Error("K10 memcached should be request-arrival limited")
	}
	// Request payload: ~1 KiB per request (1 byte per unit / reqs per unit).
	bytesPerReq := 1 / k10.IOReqs
	if bytesPerReq < 512 || bytesPerReq > 2048 {
		t.Errorf("memcached K10 value size = %.0f B, want ~1 KiB", bytesPerReq)
	}
	a9, err := mc.Demand("A9")
	if err != nil {
		t.Fatal(err)
	}
	if a9.IOReqs != 0 {
		t.Error("A9 memcached should be bandwidth limited, not request limited")
	}
	// The A9's 100 Mb/s NIC implies ~1 wire byte per served byte.
	if a9.IOBytes < 0.8 || a9.IOBytes > 1.5 {
		t.Errorf("A9 memcached wire bytes per unit = %g, want ~1", float64(a9.IOBytes))
	}
}

func TestGenerateSyntheticDeterministic(t *testing.T) {
	cat := hardware.DefaultCatalog()
	spec := DefaultSyntheticSpec()
	a, err := Generate(cat, spec, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cat, spec, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("generated %d/%d profiles", len(a), len(b))
	}
	for i := range a {
		da, _ := a[i].Demand("A9")
		db, _ := b[i].Demand("A9")
		if da != db {
			t.Fatalf("profile %d differs across same-seed generations", i)
		}
	}
	c, err := Generate(cat, spec, 10, 43)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := a[0].Demand("A9")
	dc, _ := c[0].Demand("A9")
	if da == dc {
		t.Error("different seeds generated identical profiles")
	}
}

// TestGenerateSyntheticValid is a property test: every generated profile
// validates and covers every catalog node type.
func TestGenerateSyntheticValid(t *testing.T) {
	cat := hardware.DefaultCatalog()
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		profiles, err := Generate(cat, DefaultSyntheticSpec(), n, seed)
		if err != nil || len(profiles) != n {
			return false
		}
		for _, p := range profiles {
			if p.Validate() != nil {
				return false
			}
			for _, nt := range cat.Names() {
				if !p.Supports(nt) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	cat := hardware.DefaultCatalog()
	spec := DefaultSyntheticSpec()
	spec.MinCyclesPerUnit = 0
	if _, err := Generate(cat, spec, 1, 1); err == nil {
		t.Error("zero min cycles accepted")
	}
	spec = DefaultSyntheticSpec()
	spec.MaxCyclesPerUnit = spec.MinCyclesPerUnit - 1
	if _, err := Generate(cat, spec, 1, 1); err == nil {
		t.Error("inverted cycle bounds accepted")
	}
	if out, err := Generate(cat, DefaultSyntheticSpec(), 0, 1); err != nil || out != nil {
		t.Error("n=0 should return nil, nil")
	}
}

func TestPaperSpecUnknown(t *testing.T) {
	if _, err := PaperSpec("nope"); err == nil {
		t.Error("unknown paper workload accepted")
	}
}

func TestProfileString(t *testing.T) {
	p := NewProfile("x264", DomainStreaming, "frames", 1000)
	if err := p.SetDemand("A9", Demand{CoreCycles: 1, Intensity: 1}); err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, frag := range []string{"x264", "frames", "1 node types"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String %q missing %q", s, frag)
		}
	}
}

func TestCalibratedDemandMagnitudes(t *testing.T) {
	// Sanity-check the physical plausibility of calibrated demands: EP
	// on A9 should cost a few hundred core cycles per random number.
	cat := hardware.DefaultCatalog()
	reg, err := PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := reg.Lookup(NameEP)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ep.Demand("A9")
	if err != nil {
		t.Fatal(err)
	}
	if d.CoreCycles < 100 || d.CoreCycles > 1000 {
		t.Errorf("EP on A9 costs %g cycles per random number; implausible", float64(d.CoreCycles))
	}
	if d.IOBytes > units.Bytes(1) {
		t.Errorf("EP should have negligible I/O, got %g B/unit", float64(d.IOBytes))
	}
}
