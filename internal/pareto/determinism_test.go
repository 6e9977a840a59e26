package pareto

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/workload"
)

// frontiersBitIdentical asserts byte-for-byte scalar equality
// (math.Float64bits, not ==, so even NaN payloads and signed zeros
// would have to match) plus config identity and identical Results.
func frontiersBitIdentical(t *testing.T, label string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: frontier size %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Config.Key() != want[i].Config.Key() {
			t.Fatalf("%s: point %d is %s, want %s", label, i, got[i].Config, want[i].Config)
		}
		if math.Float64bits(float64(got[i].Time)) != math.Float64bits(float64(want[i].Time)) ||
			math.Float64bits(float64(got[i].Energy)) != math.Float64bits(float64(want[i].Energy)) {
			t.Fatalf("%s: point %d scalars (%v,%v) not bitwise-equal to (%v,%v)",
				label, i, got[i].Time, got[i].Energy, want[i].Time, want[i].Energy)
		}
		if math.Float64bits(float64(got[i].Result.Time)) != math.Float64bits(float64(want[i].Result.Time)) ||
			math.Float64bits(float64(got[i].Result.Energy)) != math.Float64bits(float64(want[i].Result.Energy)) {
			t.Fatalf("%s: point %d materialized Result differs bitwise", label, i)
		}
	}
}

// paperLimits is the A9/K10 space with the given node caps; dvfs frees
// cores and frequency, as in the paper's footnote-4 space.
func paperLimits(t testing.TB, maxA9, maxK10 int, dvfs bool) []cluster.Limit {
	t.Helper()
	cat := hardware.DefaultCatalog()
	a9, err := cat.Lookup("A9")
	if err != nil {
		t.Fatal(err)
	}
	k10, err := cat.Lookup("K10")
	if err != nil {
		t.Fatal(err)
	}
	return []cluster.Limit{
		{Type: a9, MaxNodes: maxA9, FixCoresAndFreq: !dvfs},
		{Type: k10, MaxNodes: maxK10, FixCoresAndFreq: !dvfs},
	}
}

func paperWorkloads(t testing.TB) []*workload.Profile {
	t.Helper()
	reg, err := workload.PaperRegistry(hardware.DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	var out []*workload.Profile
	for _, name := range workload.PaperNames() {
		wl, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, wl)
	}
	return out
}

// TestFrontierParallelDeterminism: for every paper workload, the fast
// engine's frontier, pruned and NoPrune, is bitwise-identical to the
// Reference sweep. The workloads sweep in parallel subtests, as
// epserve runs concurrent requests over the pooled sweep scratch, so
// state leaking from one sweep into the next user of a pooled engine
// would show here (and under -race). The -short form shrinks the space
// so the race-gated CI run stays fast.
func TestFrontierParallelDeterminism(t *testing.T) {
	maxA9, maxK10 := 6, 3
	if testing.Short() {
		maxA9, maxK10 = 3, 2
	}
	limits := paperLimits(t, maxA9, maxK10, true)

	for _, wl := range paperWorkloads(t) {
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			ref, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{Reference: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(ref) == 0 {
				t.Fatalf("%s: empty reference frontier", wl.Name)
			}
			fast, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{})
			if err != nil {
				t.Fatal(err)
			}
			frontiersBitIdentical(t, wl.Name+" vs reference", fast, ref)

			noPrune, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{NoPrune: true})
			if err != nil {
				t.Fatal(err)
			}
			frontiersBitIdentical(t, wl.Name+" noprune", noPrune, ref)
		})
	}
}

// TestFrontierSweepFullSpaceDifferential: on the paper's full
// footnote-4 space (10 A9 x 10 K10 with DVFS, 36,380 configurations)
// and the fixed-core 32x12 and DVFS 16x12 spaces, the fast engine
// matches the Reference sweep bitwise for all six paper workloads —
// pruned, NoPrune, and under a peak-power Filter (against the
// Reference sweep with the same Filter).
func TestFrontierSweepFullSpaceDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-space differential; run without -short")
	}
	spaces := []struct {
		label         string
		maxA9, maxK10 int
		dvfs          bool
	}{
		{"footnote4 10x10 dvfs", 10, 10, true},
		{"fixed 32x12", 32, 12, false},
		{"16x12 dvfs", 16, 12, true},
	}
	for _, s := range spaces {
		limits := paperLimits(t, s.maxA9, s.maxK10, s.dvfs)
		maxCfg := cluster.MustConfig(
			cluster.FullNodes(limits[0].Type, s.maxA9),
			cluster.FullNodes(limits[1].Type, s.maxK10))
		budget := maxCfg.NominalPeak() / 2
		filter := func(cfg cluster.Config) bool { return cfg.NominalPeak() <= budget }
		for _, wl := range paperWorkloads(t) {
			label := fmt.Sprintf("%s (%d configs) %s", s.label, cluster.SpaceSize(limits), wl.Name)
			ref, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{Reference: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, noPrune := range []bool{false, true} {
				fast, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{NoPrune: noPrune})
				if err != nil {
					t.Fatal(err)
				}
				frontiersBitIdentical(t, fmt.Sprintf("%s noprune=%v", label, noPrune), fast, ref)
			}

			refFiltered, err := FrontierSweep(limits, wl, model.Options{},
				SweepOptions{Reference: true, Filter: filter})
			if err != nil {
				t.Fatal(err)
			}
			fastFiltered, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{Filter: filter})
			if err != nil {
				t.Fatal(err)
			}
			frontiersBitIdentical(t, label+" filtered", fastFiltered, refFiltered)
		}
	}
}

// TestFrontierParallelAccountingInvariant: on randomized spaces, the
// SpaceSize accounting invariant — evaluated + skipped + filtered +
// pruned == SpaceSize — holds with and without pruning and with a
// Filter installed, and the NoPrune frontier is bitwise-identical to
// the pruned one. The spaces sweep in parallel subtests, as in
// TestFrontierParallelDeterminism.
func TestFrontierParallelAccountingInvariant(t *testing.T) {
	iterations := 25
	if testing.Short() {
		iterations = 8
	}
	for iter := 0; iter < iterations; iter++ {
		t.Run(fmt.Sprint(iter), func(t *testing.T) {
			t.Parallel()
			rng := stats.NewRNG(0xA5A5A5A5DEADBEEF + uint64(iter))
			limits, wl := randomSpace(t, rng)
			space := int64(cluster.SpaceSize(limits))

			var pruned []Point
			for _, mode := range []struct {
				label   string
				noPrune bool
				filter  func(cluster.Config) bool
			}{
				{label: "pruned"},
				{label: "noprune", noPrune: true},
				{label: "filtered", filter: func(cfg cluster.Config) bool {
					return cfg.Nodes()%2 == 0
				}},
			} {
				label := fmt.Sprintf("iter %d %s (space %d)", iter, mode.label, space)
				var st SweepStats
				front, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{
					NoPrune: mode.noPrune,
					Filter:  mode.filter,
					Stats:   &st,
				})
				if err != nil {
					t.Fatal(err)
				}
				if sum := st.Evaluated + st.Skipped + st.Filtered + st.Pruned; sum != space {
					t.Fatalf("%s: evaluated %d + skipped %d + filtered %d + pruned %d = %d != space %d",
						label, st.Evaluated, st.Skipped, st.Filtered, st.Pruned, sum, space)
				}
				if mode.noPrune && st.Pruned != 0 {
					t.Fatalf("%s: NoPrune sweep pruned %d configurations", label, st.Pruned)
				}
				if mode.filter == nil && st.Filtered != 0 {
					t.Fatalf("%s: filterless sweep filtered %d configurations", label, st.Filtered)
				}
				if mode.filter == nil {
					if !mode.noPrune {
						pruned = front
					} else {
						frontiersBitIdentical(t, label+" vs pruned", front, pruned)
					}
				}
			}
		})
	}
}

// TestFrontierSweepSharedTable: a caller-provided table gives the
// identical frontier, cold and warm, and a table built for a different
// workload or options is rejected instead of silently corrupting the
// sweep.
func TestFrontierSweepSharedTable(t *testing.T) {
	limits, wl := sweepSpace(t)
	want, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}

	table := model.NewTable(wl, model.Options{})
	for _, state := range []string{"cold", "warm"} {
		got, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{Table: table})
		if err != nil {
			t.Fatal(err)
		}
		frontiersBitIdentical(t, "shared table "+state, got, want)
	}

	cat := hardware.DefaultCatalog()
	reg, err := workload.PaperRegistry(cat)
	if err != nil {
		t.Fatal(err)
	}
	other, err := reg.Lookup(workload.NameX264)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FrontierSweep(limits, other, model.Options{},
		SweepOptions{Table: table}); err == nil {
		t.Fatal("sweep accepted a table built for a different workload")
	}
	if _, err := FrontierSweep(limits, wl, model.Options{MemFrequencyInvariant: true},
		SweepOptions{Table: table}); err == nil {
		t.Fatal("sweep accepted a table built for different options")
	}
}

// TestFrontierSweepContextCancel: a pre-cancelled context aborts the
// sweep with the context's error and no partial frontier, on both
// engines.
func TestFrontierSweepContextCancel(t *testing.T) {
	limits, wl := sweepSpace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	front, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{Context: ctx})
	if err != context.Canceled {
		t.Fatalf("fast: err = %v, want context.Canceled", err)
	}
	if front != nil {
		t.Fatalf("fast: cancelled sweep returned %d points", len(front))
	}
	if _, err := FrontierSweep(limits, wl, model.Options{},
		SweepOptions{Reference: true, Context: ctx}); err != context.Canceled {
		t.Fatalf("reference: err = %v, want context.Canceled", err)
	}
}
