package pareto

import (
	"context"
	"errors"
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

// TestFrontierSlotReuse: read through pareto.spaces_built and
// pareto.configs_reused, a sweep reuses its table's space exactly when
// nothing the space depends on changed, and the space's last complete
// walk exactly when the budget's cap did not change either — a
// repeated sweep walks nothing; a different cap walks the kept space; a
// different MaxNodes, MaxCores, Freqs, FixCoresAndFreq, budget
// presence, Switched, Switch or NoPrune replaces the space and walks it
// — and every answer, SweepStats included, equals a fresh table's. A
// reuse adds its evaluated count to configs_reused and nothing to
// configs_certified. Mutating the caller's Limit.Freqs after a sweep
// changes the next sweep's answer as it would on a fresh table: the
// slot keeps its own copy. A walk on another table between a walk and
// its reuse leaves the reuse's answer intact. A sweep on a table of its
// own builds and walks every time.
func TestFrontierSlotReuse(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	built := reg.Counter("pareto.spaces_built")
	reused := reg.Counter("pareto.configs_reused")
	certified := reg.Counter("pareto.configs_certified")

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
	// Each step builds a space, walks the kept one, or reuses its walk.
	const build, walk, reuse = "build", "walk", "reuse"
	steps := []struct {
		c    slotCase
		want string
	}{
		{slotCase{"first sweep", base, nil, false}, build},
		{slotCase{"same sweep", base, nil, false}, reuse},
		{slotCase{"budget on", base, paperBudget(300), false}, build},
		{slotCase{"same cap", base, paperBudget(300), false}, reuse},
		{slotCase{"other cap", base, paperBudget(450), false}, walk},
		{slotCase{"other cap again", base, paperBudget(450), false}, reuse},
		{slotCase{"first cap again", base, paperBudget(300), false}, walk},
		{slotCase{"cap below every configuration", base, paperBudget(1), false}, walk},
		{slotCase{"cap below every configuration again", base, paperBudget(1), false}, reuse},
		{slotCase{"other Switch", base, otherSwitch, false}, build},
		{slotCase{"other Switched", base, otherSwitched, false}, build},
		{slotCase{"budget off", base, nil, false}, build},
		{slotCase{"NoPrune", base, nil, true}, build},
		{slotCase{"NoPrune again", base, nil, true}, reuse},
		{slotCase{"pruned again", base, nil, false}, build},
		{slotCase{"other MaxNodes", with(func(l *cluster.Limit) { l.MaxNodes++ }), nil, false}, build},
		{slotCase{"other MaxCores", with(func(l *cluster.Limit) { l.MaxCores = 2 }), nil, false}, build},
		{slotCase{"other Freqs", with(func(l *cluster.Limit) { l.Freqs = a9.Freq.Steps[:2] }), nil, false}, build},
		{slotCase{"FixCoresAndFreq", with(func(l *cluster.Limit) { l.FixCoresAndFreq = true }), nil, false}, build},
	}
	for _, s := range steps {
		b0, r0, c0 := built.Value(), reused.Value(), certified.Value()
		got, gotSt := s.c.sweep(t, wl, table)
		b, r, c := built.Value()-b0, reused.Value()-r0, certified.Value()-c0
		switch {
		case s.want == build && b != 1, s.want != build && b != 0:
			t.Errorf("%s: built %d spaces, want a %s", s.c.label, b, s.want)
		case s.want == reuse && (r != uint64(gotSt.Evaluated) || c != 0):
			t.Errorf("%s: reused %d and certified %d configurations, want %d and 0", s.c.label, r, c, gotSt.Evaluated)
		case s.want != reuse && r != 0:
			t.Errorf("%s: reused %d configurations, want a %s", s.c.label, r, s.want)
		}
		want, wantSt := s.c.sweep(t, wl, nil)
		frontiersBitIdentical(t, s.c.label, got, want)
		if gotSt != wantSt {
			t.Errorf("%s: stats %+v, fresh table %+v", s.c.label, gotSt, wantSt)
		}
	}

	// A walk of another table's space between a walk and its reuse:
	// the kept walk shares no buffer with the pooled engine that ran it.
	first := slotCase{"reuse after another table's walk", base, paperBudget(300), false}
	first.sweep(t, wl, table)
	slotCase{"another table", with(func(l *cluster.Limit) { l.MaxNodes++ }), nil, false}.sweep(t, wl, model.NewTable(wl, model.Options{}))
	r0 := reused.Value()
	got, gotSt := first.sweep(t, wl, table)
	if reused.Value() == r0 {
		t.Errorf("%s: walked, want a reuse", first.label)
	}
	want, wantSt := first.sweep(t, wl, nil)
	frontiersBitIdentical(t, first.label, got, want)
	if gotSt != wantSt {
		t.Errorf("%s: stats %+v, fresh table %+v", first.label, gotSt, wantSt)
	}

	// The caller's Freqs mutated in place after a sweep.
	freqs := []units.Hertz{a9.Freq.Steps[0], a9.Freq.Steps[1]}
	limits := []cluster.Limit{{Type: a9, MaxNodes: 3, Freqs: freqs}, base[1]}
	c := slotCase{"caller's Freqs", limits, nil, false}
	c.sweep(t, wl, table)
	freqs[1] = a9.Freq.Steps[len(a9.Freq.Steps)-1]
	b0, r0 := built.Value(), reused.Value()
	got, _ = c.sweep(t, wl, table)
	if b, r := built.Value()-b0, reused.Value()-r0; b != 1 || r != 0 {
		t.Errorf("sweep after mutating the caller's Freqs built %d spaces and reused %d configurations, want 1 and 0", b, r)
	}
	want, _ = c.sweep(t, wl, nil)
	frontiersBitIdentical(t, "after mutating the caller's Freqs", got, want)

	b0, r0 = built.Value(), reused.Value()
	for range 3 {
		c.sweep(t, wl, nil)
	}
	if b, r := built.Value()-b0, reused.Value()-r0; b != 3 || r != 0 {
		t.Errorf("3 sweeps on tables of their own built %d spaces and reused %d configurations, want 3 and 0", b, r)
	}
}

// TestFrontierCancelledSweepStoresNothing: a sweep under a cancelled
// context returns the context's error whether it would walk or reuse,
// and leaves no walk behind: the next live sweep walks the kept space,
// and only the one after it reuses.
func TestFrontierCancelledSweepStoresNothing(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetGlobal(reg)
	defer telemetry.SetGlobal(nil)
	built := reg.Counter("pareto.spaces_built")
	reused := reg.Counter("pareto.configs_reused")

	limits, wl := paperBenchSpace(t)
	table := model.NewTable(wl, model.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := func(label string) {
		t.Helper()
		front, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{Context: ctx, Table: table})
		if !errors.Is(err, context.Canceled) || front != nil {
			t.Fatalf("%s: %d points, error %v; want none and context.Canceled", label, len(front), err)
		}
	}
	live := func(label string, wantReused bool) {
		t.Helper()
		r0 := reused.Value()
		var st SweepStats
		if _, err := FrontierSweep(limits, wl, model.Options{}, SweepOptions{Table: table, Stats: &st}); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if r := reused.Value() - r0; r != map[bool]uint64{false: 0, true: uint64(st.Evaluated)}[wantReused] {
			t.Errorf("%s: reused %d configurations, want reuse %v (%d evaluated)", label, r, wantReused, st.Evaluated)
		}
	}

	cancelled("cancelled first sweep")
	if sp, ok := table.Space().(*spaceSoA); !ok || sp.last.Load() != nil {
		t.Fatalf("cancelled first sweep: slot %T, want a space with no walk", table.Space())
	}
	b0 := built.Value()
	live("first live sweep", false)
	cancelled("cancelled repeat")
	live("second live sweep", true)
	if b := built.Value() - b0; b != 0 {
		t.Errorf("live sweeps after the cancelled one built %d spaces, want 0", b)
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
