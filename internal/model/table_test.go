package model

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/workload"
)

// footnote4Limits returns the paper's footnote-4 design space — up to
// 10 A9 and 10 K10 nodes with free core counts and DVFS steps, 36,380
// configurations.
func footnote4Limits(t testing.TB) ([]cluster.Limit, *workload.Registry) {
	t.Helper()
	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	a9, err := cat.Lookup("A9")
	if err != nil {
		t.Fatal(err)
	}
	k10, err := cat.Lookup("K10")
	if err != nil {
		t.Fatal(err)
	}
	return []cluster.Limit{
		{Type: a9, MaxNodes: 10},
		{Type: k10, MaxNodes: 10},
	}, reg
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return d
	}
	return d / m
}

// calcsOf resolves cfg's groups through the table in the canonical
// group order EvaluateCalcs requires: the form the frontier sweep's
// leaf evaluates.
func calcsOf(t *Table, cfg cluster.Config) []GroupCalc {
	gcs := make([]GroupCalc, len(cfg.Groups))
	for i, g := range cfg.Groups {
		gcs[i] = GroupCalc{Calc: t.Calc(g), Count: g.Count}
	}
	return gcs
}

// TestTableDifferentialPaperSpace pins the fast path to the reference
// model over the full footnote-4 space for every paper workload: the
// ok bit must agree with Evaluate's error, and Time/Energy/BusyPower/
// IdlePower must match within 1e-12 relative (in practice bitwise —
// the test also counts exact matches and requires them to dominate).
func TestTableDifferentialPaperSpace(t *testing.T) {
	limits, reg := footnote4Limits(t)
	for _, name := range workload.PaperNames() {
		wl, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		table := NewTable(wl, Options{})
		n, exact := 0, 0
		err = cluster.Enumerate(limits, func(cfg cluster.Config) bool {
			n++
			fast, ok := table.EvaluateCalcs(calcsOf(table, cfg))
			ref, refErr := Evaluate(cfg, wl, Options{})
			if ok != (refErr == nil) {
				t.Fatalf("%s %s: fast ok=%v, reference err=%v", name, cfg, ok, refErr)
			}
			if !ok {
				return true
			}
			if relDiff(float64(fast.Time), float64(ref.Time)) > 1e-12 ||
				relDiff(float64(fast.Energy), float64(ref.Energy)) > 1e-12 ||
				relDiff(float64(fast.BusyPower), float64(ref.BusyPower)) > 1e-12 ||
				relDiff(float64(fast.IdlePower), float64(ref.IdlePower)) > 1e-12 {
				t.Fatalf("%s %s: fast %+v vs reference (T=%v E=%v BP=%v IP=%v)",
					name, cfg, fast, ref.Time, ref.Energy, ref.BusyPower, ref.IdlePower)
			}
			if fast.Time == ref.Time && fast.Energy == ref.Energy &&
				fast.BusyPower == ref.BusyPower && fast.IdlePower == ref.IdlePower {
				exact++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := cluster.SpaceSize(limits); n != want {
			t.Fatalf("%s: enumerated %d configurations, want %d", name, n, want)
		}
		if exact != n {
			t.Errorf("%s: only %d/%d configurations matched bitwise", name, exact, n)
		}
	}
}

// TestTableOptionsAndUnsupported: the MemFrequencyInvariant ablation
// flows through the table, and missing demand vectors surface as
// ok=false exactly like Evaluate's error.
func TestTableOptionsAndUnsupported(t *testing.T) {
	limits, reg := footnote4Limits(t)
	wl, err := reg.Lookup(workload.NameX264)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{MemFrequencyInvariant: true}
	table := NewTable(wl, opt)
	checked := 0
	err = cluster.Enumerate(limits, func(cfg cluster.Config) bool {
		fast, ok := table.EvaluateCalcs(calcsOf(table, cfg))
		ref, refErr := Evaluate(cfg, wl, opt)
		if ok != (refErr == nil) {
			t.Fatalf("%s: fast ok=%v, reference err=%v", cfg, ok, refErr)
		}
		if ok && (fast.Time != ref.Time || fast.Energy != ref.Energy) {
			t.Fatalf("%s: ablation mismatch: %v/%v vs %v/%v",
				cfg, fast.Time, fast.Energy, ref.Time, ref.Energy)
		}
		checked++
		return checked < 500
	})
	if err != nil {
		t.Fatal(err)
	}

	// A workload that only knows one node type: configurations touching
	// the other type must come back unsupported.
	cat := hardware.DefaultCatalog()
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	narrow := workload.NewProfile("narrow", workload.DomainSynthetic, "units", 1e6)
	if err := narrow.SetDemand("A9", workload.Demand{CoreCycles: 1e5, MemCycles: 1e4, Intensity: 1}); err != nil {
		t.Fatal(err)
	}
	nt := NewTable(narrow, Options{})
	mixed := cluster.MustConfig(cluster.FullNodes(a9, 2), cluster.FullNodes(k10, 1))
	if _, ok := nt.EvaluateCalcs(calcsOf(nt, mixed)); ok {
		t.Error("mixed configuration with missing K10 demand reported ok")
	}
	pure := cluster.MustConfig(cluster.FullNodes(a9, 2))
	fast, ok := nt.EvaluateCalcs(calcsOf(nt, pure))
	if !ok {
		t.Fatal("supported configuration reported not ok")
	}
	ref, err := Evaluate(pure, narrow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Time != ref.Time || fast.Energy != ref.Energy {
		t.Errorf("narrow workload mismatch: %v/%v vs %v/%v", fast.Time, fast.Energy, ref.Time, ref.Energy)
	}
}

// TestTableUnitCalcInvariants sanity-checks the memoized entries: the
// per-unit times match unitTime, NodeRate inverts UnitTotal, and
// EnergyPerUnit is positive for supported operating points.
func TestTableUnitCalcInvariants(t *testing.T) {
	_, reg := footnote4Limits(t)
	wl, err := reg.Lookup(workload.NameEP)
	if err != nil {
		t.Fatal(err)
	}
	cat := hardware.DefaultCatalog()
	a9, _ := cat.Lookup("A9")
	table := NewTable(wl, Options{})
	for _, cores := range []int{1, a9.Cores} {
		for _, f := range a9.Freq.Steps {
			g := cluster.Group{Type: a9, Count: 3, Cores: cores, Freq: f}
			uc := table.Calc(g)
			if !uc.Supported {
				t.Fatalf("EP on A9 %dc@%v unsupported", cores, f)
			}
			d, err := wl.Demand("A9")
			if err != nil {
				t.Fatal(err)
			}
			core, mem, cpu, io, total := unitTime(g, d, wl.IORate, Options{})
			if uc.UnitCore != core || uc.UnitMem != mem || uc.UnitCPU != cpu ||
				uc.UnitIO != io || uc.UnitTotal != total {
				t.Errorf("unit times differ from unitTime for %dc@%v", cores, f)
			}
			if total > 0 && uc.NodeRate != 1/float64(total) {
				t.Errorf("NodeRate %v != 1/UnitTotal %v", uc.NodeRate, total)
			}
			if uc.EnergyPerUnit <= 0 {
				t.Errorf("EnergyPerUnit %v not positive", uc.EnergyPerUnit)
			}
			// Count must not affect the memoized entry.
			other := table.Calc(cluster.Group{Type: a9, Count: 9, Cores: cores, Freq: f})
			if other != uc {
				t.Error("distinct UnitCalc for same operating point, different count")
			}
		}
	}
}

// TestEvaluateCalcsZeroAllocs asserts the hot path allocates nothing —
// the property the sweep engine's throughput rests on.
func TestEvaluateCalcsZeroAllocs(t *testing.T) {
	_, reg := footnote4Limits(t)
	wl, err := reg.Lookup(workload.NameEP)
	if err != nil {
		t.Fatal(err)
	}
	cat := hardware.DefaultCatalog()
	a9, _ := cat.Lookup("A9")
	k10, _ := cat.Lookup("K10")
	cfg := cluster.MustConfig(cluster.FullNodes(a9, 7), cluster.FullNodes(k10, 3))
	table := NewTable(wl, Options{})
	gcs := calcsOf(table, cfg)
	if _, ok := table.EvaluateCalcs(gcs); !ok {
		t.Fatal("configuration not evaluable")
	}
	var sink FastResult
	allocs := testing.AllocsPerRun(1000, func() {
		sink, _ = table.EvaluateCalcs(gcs)
	})
	if allocs != 0 {
		t.Errorf("EvaluateCalcs allocates %.1f objects per call, want 0", allocs)
	}
	if sink.Time <= 0 || sink.Energy <= 0 {
		t.Errorf("suspicious result %+v", sink)
	}
}

// TestTableSnapshotAndMatches: Snapshot warms exactly the operating
// points of the limits it is given — one memoized UnitCalc per (type,
// cores, freq), which Calc then returns for every node count — and
// Matches enforces the (profile pointer, options) identity the
// shared-table sweep option relies on.
func TestTableSnapshotAndMatches(t *testing.T) {
	limits, reg := footnote4Limits(t)
	wl, err := reg.Lookup(workload.NameEP)
	if err != nil {
		t.Fatal(err)
	}
	table := NewTable(wl, Options{})
	table.Snapshot(limits)

	warmed := make(map[*UnitCalc]bool, len(table.calcs))
	for _, uc := range table.calcs {
		warmed[uc] = true
	}
	points := 0
	for _, l := range limits {
		points += len(l.OperatingPoints())
		for _, g := range l.OperatingPoints() {
			for g.Count = 1; g.Count <= l.MaxNodes; g.Count++ {
				if uc := table.Calc(g); !warmed[uc] {
					t.Fatalf("Calc(%v) was not warmed by Snapshot", g)
				}
			}
		}
	}
	if len(table.calcs) != points {
		t.Fatalf("Snapshot memoized %d operating points, want the limits' %d", len(table.calcs), points)
	}

	if !table.Matches(wl, Options{}) {
		t.Fatal("Matches rejected the table's own (workload, options)")
	}
	if table.Matches(wl, Options{MemFrequencyInvariant: true}) {
		t.Fatal("Matches accepted different options")
	}
	other, err := reg.Lookup(workload.NameX264)
	if err != nil {
		t.Fatal(err)
	}
	if table.Matches(other, Options{}) {
		t.Fatal("Matches accepted a different workload profile")
	}
}
