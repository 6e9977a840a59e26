package pareto

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

// slotCase is one sweep a test runs against a table's space slot.
type slotCase struct {
	label   string
	limits  []cluster.Limit
	budget  *cluster.PowerBudget
	noPrune bool
}

func (c slotCase) sweep(t testing.TB, wl *workload.Profile, table *model.Table) ([]Point, SweepStats) {
	t.Helper()
	var st SweepStats
	front, err := FrontierSweep(c.limits, wl, model.Options{}, SweepOptions{
		Budget: c.budget, NoPrune: c.noPrune, Table: table, Stats: &st})
	if err != nil {
		t.Fatalf("%s: %v", c.label, err)
	}
	return front, st
}

// paperBudget is the paper's wimpy-side switched budget at cap w.
func paperBudget(w units.Watts) *cluster.PowerBudget {
	return &cluster.PowerBudget{Cap: w, Switched: "A9", Switch: hardware.DefaultSwitch()}
}

// TestFrontierSharedSlotConcurrent: goroutines sweeping one shared table
// with two limit sets, the budget off and on at two caps, and NoPrune
// on and off — so the slot is replaced under concurrent readers — each
// get the frontier and accounting a sweep on a fresh table gets, bit
// for bit. Run under -race by `make race`.
func TestFrontierSharedSlotConcurrent(t *testing.T) {
	wl := paperWorkloads(t)[0]
	var cases []slotCase
	for _, limits := range [][]cluster.Limit{paperLimits(t, 3, 2, true), paperLimits(t, 2, 3, true)} {
		for _, b := range []*cluster.PowerBudget{nil, paperBudget(300), paperBudget(450)} {
			for _, noPrune := range []bool{false, true} {
				cases = append(cases, slotCase{fmt.Sprintf("%dxA9 %dxK10 budget %v noprune %v",
					limits[0].MaxNodes, limits[1].MaxNodes, b != nil, noPrune), limits, b, noPrune})
			}
		}
	}
	want := make([][]Point, len(cases))
	wantSt := make([]SweepStats, len(cases))
	for i, c := range cases {
		want[i], wantSt[i] = c.sweep(t, wl, nil)
	}

	const workers, rounds = 8, 3
	table := model.NewTable(wl, model.Options{})
	got := make([][][]Point, workers)
	gotSt := make([][]SweepStats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds * len(cases) {
				c := cases[(g+r)%len(cases)]
				var st SweepStats
				front, err := FrontierSweep(c.limits, wl, model.Options{}, SweepOptions{
					Budget: c.budget, NoPrune: c.noPrune, Table: table, Stats: &st})
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], front)
				gotSt[g] = append(gotSt[g], st)
			}
		}()
	}
	wg.Wait()
	for g := range workers {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for r, front := range got[g] {
			k := (g + r) % len(cases)
			frontiersBitIdentical(t, fmt.Sprintf("goroutine %d round %d, %s", g, r, cases[k].label), front, want[k])
			if gotSt[g][r] != wantSt[k] {
				t.Fatalf("goroutine %d round %d, %s: stats %+v, fresh table %+v", g, r, cases[k].label, gotSt[g][r], wantSt[k])
			}
		}
	}
}

// TestFrontierSlotReuse: read through pareto.spaces_built, a sweep
// reuses its table's space exactly when nothing the space depends on
// changed — a different budget cap reuses it; a different MaxNodes,
// MaxCores, Freqs, FixCoresAndFreq, budget presence, Switched, Switch
// or NoPrune replaces it — and every answer equals a fresh table's.
// Mutating the caller's Limit.Freqs after a sweep changes the next
// sweep's answer as it would on a fresh table: the slot keeps its own
// copy. A sweep on a table of its own builds every time.
func TestFrontierSlotReuse(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	built := reg.Counter("pareto.spaces_built")

	wl := paperWorkloads(t)[0]
	table := model.NewTable(wl, model.Options{})
	base := paperLimits(t, 3, 2, true)
	with := func(mutate func(l *cluster.Limit)) []cluster.Limit {
		out := []cluster.Limit{base[0], base[1]}
		mutate(&out[0])
		return out
	}
	a9 := base[0].Type
	otherSwitch := paperBudget(300)
	otherSwitch.Switch.PowerPerSwitch++
	otherSwitched := paperBudget(300)
	otherSwitched.Switched = "K10"
	steps := []struct {
		c     slotCase
		build bool
	}{
		{slotCase{"first sweep", base, nil, false}, true},
		{slotCase{"same sweep", base, nil, false}, false},
		{slotCase{"budget on", base, paperBudget(300), false}, true},
		{slotCase{"other cap", base, paperBudget(450), false}, false},
		{slotCase{"cap below every configuration", base, paperBudget(1), false}, false},
		{slotCase{"other Switch", base, otherSwitch, false}, true},
		{slotCase{"other Switched", base, otherSwitched, false}, true},
		{slotCase{"budget off", base, nil, false}, true},
		{slotCase{"NoPrune", base, nil, true}, true},
		{slotCase{"pruned again", base, nil, false}, true},
		{slotCase{"other MaxNodes", with(func(l *cluster.Limit) { l.MaxNodes++ }), nil, false}, true},
		{slotCase{"other MaxCores", with(func(l *cluster.Limit) { l.MaxCores = 2 }), nil, false}, true},
		{slotCase{"other Freqs", with(func(l *cluster.Limit) { l.Freqs = a9.Freq.Steps[:2] }), nil, false}, true},
		{slotCase{"FixCoresAndFreq", with(func(l *cluster.Limit) { l.FixCoresAndFreq = true }), nil, false}, true},
	}
	for _, s := range steps {
		before := built.Value()
		got, gotSt := s.c.sweep(t, wl, table)
		if n := built.Value() - before; n != map[bool]uint64{false: 0, true: 1}[s.build] {
			t.Errorf("%s: built %d spaces, want build=%v", s.c.label, n, s.build)
		}
		want, wantSt := s.c.sweep(t, wl, nil)
		frontiersBitIdentical(t, s.c.label, got, want)
		if gotSt != wantSt {
			t.Errorf("%s: stats %+v, fresh table %+v", s.c.label, gotSt, wantSt)
		}
	}

	// The caller's Freqs mutated in place after a sweep.
	freqs := []units.Hertz{a9.Freq.Steps[0], a9.Freq.Steps[1]}
	limits := []cluster.Limit{{Type: a9, MaxNodes: 3, Freqs: freqs}, base[1]}
	c := slotCase{"caller's Freqs", limits, nil, false}
	c.sweep(t, wl, table)
	freqs[1] = a9.Freq.Steps[len(a9.Freq.Steps)-1]
	before := built.Value()
	got, _ := c.sweep(t, wl, table)
	if n := built.Value() - before; n != 1 {
		t.Errorf("sweep after mutating the caller's Freqs built %d spaces, want 1", n)
	}
	want, _ := c.sweep(t, wl, nil)
	frontiersBitIdentical(t, "after mutating the caller's Freqs", got, want)

	before = built.Value()
	for range 3 {
		c.sweep(t, wl, nil)
	}
	if n := built.Value() - before; n != 3 {
		t.Errorf("3 sweeps on tables of their own built %d spaces, want 3", n)
	}
}

// BenchmarkFrontierSweepAlternating is the slot's miss path: two limit
// sets (the footnote-4 space, and the same with one K10 fewer) swept in
// turn on one shared table, so every sweep builds and publishes its
// space.
func BenchmarkFrontierSweepAlternating(b *testing.B) {
	limits, wl := paperBenchSpace(b)
	other := []cluster.Limit{limits[0], limits[1]}
	other[1].MaxNodes--
	sets := [][]cluster.Limit{limits, other}
	table := model.NewTable(wl, model.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front, err := FrontierSweep(sets[i%2], wl, model.Options{}, SweepOptions{Table: table})
		if err != nil {
			b.Fatal(err)
		}
		if len(front) == 0 {
			b.Fatal("empty frontier")
		}
	}
}
